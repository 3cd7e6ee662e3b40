package telemetrynet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/sensors"
	"mira/internal/topology"
	"mira/internal/tsdb"
)

// waitTrace polls the default registry's ring until the trace's merged
// fragments contain every wanted span name; distributed finalization means
// the last fragment can land just after the client-side call returns.
func waitTrace(t *testing.T, id obs.TraceID, names ...string) []obs.SpanRecord {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var spans []obs.SpanRecord
		for _, frag := range obs.Default().TraceByID(id) {
			spans = append(spans, frag.Spans...)
		}
		have := make(map[string]bool, len(spans))
		for _, sp := range spans {
			have[sp.Name] = true
		}
		missing := false
		for _, n := range names {
			if !have[n] {
				missing = true
			}
		}
		if !missing {
			return spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never completed: have %v, want %v", id, have, names)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func spanByName(t *testing.T, spans []obs.SpanRecord, name string) obs.SpanRecord {
	t.Helper()
	for _, sp := range spans {
		if sp.Name == name {
			return sp
		}
	}
	t.Fatalf("span %q not in trace", name)
	return obs.SpanRecord{}
}

// TestEndToEndTracePropagation pins the tentpole: one remote merged scan
// produces a single coherent trace — client RPC span → HTTP → server
// handler span → tsdb merged-scan span → per-block worker spans — visible
// at /debug/traces on both ends (one ring here, since client and server
// share the process).
func TestEndToEndTracePropagation(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	fillStore(t, store, netTrace(8))
	_, client := startServer(t, store)

	ctx, root := obs.Span(context.Background(), "test.e2e")
	rows := 0
	if err := client.EachRecordMergedTierCtx(ctx, 3, func(r sensors.Record, tier envdb.Tier) bool {
		rows++
		return true
	}); err != nil {
		t.Fatalf("remote merged scan: %v", err)
	}
	root.End()
	if rows != 8*topology.NumRacks {
		t.Fatalf("scanned %d rows, want %d", rows, 8*topology.NumRacks)
	}

	id := root.Context().Trace
	spans := waitTrace(t, id,
		"test.e2e", "net.client.scan", "net.scan", "tsdb.scan_chunked", "tsdb.scan_block")

	clientScan := spanByName(t, spans, "net.client.scan")
	handler := spanByName(t, spans, "net.scan")
	merged := spanByName(t, spans, "tsdb.scan_chunked")
	if clientScan.Parent != spanByName(t, spans, "test.e2e").ID {
		t.Fatalf("net.client.scan parent %s, want root %s", clientScan.Parent, root.Context().Span)
	}
	if handler.Parent != clientScan.ID {
		t.Fatalf("net.scan parent %s: trace context did not cross the wire (want %s)",
			handler.Parent, clientScan.ID)
	}
	if merged.Parent != handler.ID {
		t.Fatalf("tsdb.scan_chunked parent %s, want handler span %s", merged.Parent, handler.ID)
	}
	blocks := 0
	for _, sp := range spans {
		if sp.Name == "tsdb.scan_block" {
			blocks++
			if sp.Parent != merged.ID {
				t.Fatalf("tsdb.scan_block parent %s, want scan span %s (worker ctx not threaded)",
					sp.Parent, merged.ID)
			}
		}
	}
	if blocks == 0 {
		t.Fatal("no tsdb.scan_block worker spans in trace")
	}

	// The same trace renders as one tree at /debug/traces/<id>.
	srv, err := obs.ServeWith("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	resp, err := http.Get("http://" + srv.Addr() + "/debug/traces/" + id.String())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/traces/%s: status %d", id, resp.StatusCode)
	}
	for _, want := range []string{"test.e2e", "net.scan", "tsdb.scan_chunked"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/debug/traces tree missing %q:\n%s", want, body)
		}
	}
}

// TestMalformedTraceHeaderIgnored pins the hostile-input contract: any
// malformed X-Mira-Trace value is ignored — the request succeeds and the
// server starts a fresh root — while a well-formed one parents the
// handler span to the remote caller.
func TestMalformedTraceHeaderIgnored(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	fillStore(t, store, netTrace(2))
	h := NewServer(store, ServerOptions{}).Handler()

	for _, v := range []string{
		"",
		"garbage",
		"deadbeefcafef00d/0123456789abcdef",    // truncated
		"deadbeefcafef00d/0123456789abcdef/12", // oversized
		"deadbeefcafef00d/0123456789abcdef/x",  // bad flag
		"zzzzzzzzzzzzzzzz/0123456789abcdef/1",  // bad hex
		"0000000000000000/0000000000000000/1",  // zero IDs
		strings.Repeat("A", 4096),              // oversized noise
		"deadbeefcafef00d/0123456789abcdef/1\x00",
	} {
		req := httptest.NewRequest("GET", "/v1/info", nil)
		req.Header.Set(obs.TraceHeader, v)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("header %q: status %d, want 200 (malformed headers must be ignored)", v, rec.Code)
		}
	}

	// Control: a valid header must parent the handler span remotely.
	remote := obs.SpanContext{Trace: 0xfeedfacecafebeef, Span: 0x1122334455667788, Sampled: true}
	req := httptest.NewRequest("GET", "/v1/info", nil)
	req.Header.Set(obs.TraceHeader, remote.HeaderValue())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("valid header: status %d", rec.Code)
	}
	spans := waitTrace(t, remote.Trace, "net.info")
	if sp := spanByName(t, spans, "net.info"); sp.Parent != remote.Span {
		t.Fatalf("net.info parent %s, want remote span %s", sp.Parent, remote.Span)
	}
}

// syncBuf is an io.Writer safe to read while the server's slow-query
// goroutine may still be writing.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSlowQueryLogAlwaysRecords pins the introspection contract: with a
// threshold of 1ns every request is slow, and each one must produce a
// JSON line carrying the endpoint, a parseable trace ID, the query shape,
// and scan statistics.
func TestSlowQueryLogAlwaysRecords(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	recs := netTrace(4)
	fillStore(t, store, recs)
	var buf syncBuf
	ts := httptest.NewServer(NewServer(store, ServerOptions{
		SlowQuery: time.Nanosecond,
		SlowLog:   &buf,
	}).Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ClientOptions{})

	rack := topology.RackByIndex(7)
	from, to := recs[0].Time, recs[len(recs)-1].Time.Add(time.Second)
	if got := client.Query(rack, from, to); len(got) != 4 {
		t.Fatalf("query returned %d records, want 4", len(got))
	}

	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(buf.String(), "\n") {
		if time.Now().After(deadline) {
			t.Fatal("no slow-query line after 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	line := strings.SplitN(buf.String(), "\n", 2)[0]
	var got struct {
		Trace    string            `json:"trace"`
		Endpoint string            `json:"endpoint"`
		Seconds  float64           `json:"seconds"`
		Shape    map[string]string `json:"shape"`
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("slow-query line is not JSON: %v\n%s", err, line)
	}
	if got.Endpoint != "query" {
		t.Fatalf("endpoint %q, want query", got.Endpoint)
	}
	if len(got.Trace) != 16 {
		t.Fatalf("trace %q is not a 16-hex ID", got.Trace)
	}
	if got.Shape["rack"] != rack.String() {
		t.Fatalf("shape rack %q, want %q (full shape: %v)", got.Shape["rack"], rack, got.Shape)
	}
	if got.Shape["from"] == "" || got.Shape["rows"] != "4" {
		t.Fatalf("shape missing range/rows: %v", got.Shape)
	}
	if got.Seconds <= 0 {
		t.Fatalf("seconds %v, want > 0", got.Seconds)
	}
}

// FuzzTraceHeaderHandling drives arbitrary X-Mira-Trace bytes through a
// live handler beside the wire fuzz targets: whatever the header holds,
// the request must succeed — extraction degrades to a fresh root, never
// an error or panic.
func FuzzTraceHeaderHandling(f *testing.F) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	for _, r := range wireTrace(4) {
		if err := store.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	h := NewServer(store, ServerOptions{}).Handler()
	f.Add("deadbeefcafef00d/0123456789abcdef/1")
	f.Add("deadbeefcafef00d/0123456789abcdef/0")
	f.Add("")
	f.Add("deadbeefcafef00d/0123456789abcdef")
	f.Add("deadbeefcafef00d/0123456789abcdef/12")
	f.Add("0000000000000000/0000000000000000/1")
	f.Add(strings.Repeat("/", 35))
	f.Add(strings.Repeat("f", 64))
	f.Fuzz(func(t *testing.T, v string) {
		req := httptest.NewRequest("GET", "/v1/info", nil)
		req.Header.Set(obs.TraceHeader, v)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("header %q: status %d", v, rec.Code)
		}
	})
}
