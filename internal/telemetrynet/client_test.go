package telemetrynet

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/tsdb"
)

// TestClientRetryDedup is the end-to-end retry story: the server applies a
// push but the response is lost, the client retries the same batch token,
// and the records land exactly once.
func TestClientRetryDedup(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	inner := NewServer(store, ServerOptions{}).Handler()
	var calls int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/ingest" && atomic.AddInt32(&calls, 1) == 1 {
			// Apply the batch, then lose the response on the wire.
			inner.ServeHTTP(httptest.NewRecorder(), r)
			http.Error(w, "simulated response loss", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	client := NewClient(proxy.URL, ClientOptions{BatchSize: 1 << 20, Retries: 3})
	recs := netTrace(3)
	fillStore(t, client, recs)
	if err := client.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if store.Len() != len(recs) {
		t.Fatalf("store has %d records, want %d (retried batch must dedup)", store.Len(), len(recs))
	}
	stats := client.Stats()
	if stats.Retries != 1 || stats.DuplicateBatches != 1 || stats.PushedBatches != 1 {
		t.Fatalf("stats = %+v, want 1 retry / 1 duplicate / 1 batch", stats)
	}
}

// TestClientPushRejected: a 4xx rejection is permanent — no retries, the
// error surfaces, and the poisoned batch is dropped so later pushes work.
func TestClientPushRejected(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, "out of order", http.StatusConflict)
	}))
	defer ts.Close()
	client := NewClient(ts.URL, ClientOptions{Retries: 3})
	fillStore(t, client, netTrace(1))
	err := client.Flush()
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("flush err = %v, want rejection", err)
	}
	if n := atomic.LoadInt32(&calls); n != 1 {
		t.Fatalf("4xx retried %d times, want a single attempt", n)
	}
	if err := client.Flush(); err != nil {
		t.Fatalf("flush after drop: %v (rejected batch must not stick)", err)
	}
}

// TestClientTransportExhaustion: every attempt fails → the error reports
// the attempt count and the batch is consumed.
func TestClientTransportExhaustion(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()
	client := NewClient(ts.URL, ClientOptions{Retries: 2})
	fillStore(t, client, netTrace(1))
	err := client.Flush()
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("flush err = %v, want exhaustion after 3 attempts", err)
	}
	if n := atomic.LoadInt32(&calls); n != 3 {
		t.Fatalf("made %d attempts, want 3", n)
	}
}

// TestClientCancelDuringRetryBackoff: canceling the client context while
// the push is waiting out a retry backoff against a down server must
// return promptly with the context error — not sleep through the rest of
// the retry schedule (the old bare time.Sleep held Append/Flush, and the
// mutex under them, for the full schedule after cancellation).
func TestClientCancelDuringRetryBackoff(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	// 40 retries at 50ms+ linear steps is a multi-second schedule; the
	// canceled flush must not come anywhere near it.
	client := NewClient(ts.URL, ClientOptions{Retries: 40, Context: ctx})
	fillStore(t, client, netTrace(1))
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := client.Flush()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("flush succeeded against a down server")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("flush err = %v, want wrapped context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("canceled flush took %v; the backoff did not observe the context", elapsed)
	}
	if n := atomic.LoadInt32(&calls); n >= 40 {
		t.Fatalf("made %d attempts after cancel, want an early abort", n)
	}
}

// TestRetryBackoffJitter: the backoff grows with the attempt counter and
// carries per-client, per-batch jitter so simultaneous failures don't
// retry in lockstep.
func TestRetryBackoffJitter(t *testing.T) {
	for attempt := 1; attempt <= 4; attempt++ {
		base := time.Duration(attempt) * 50 * time.Millisecond
		d := retryBackoff(attempt, 7, 3)
		if d < base || d >= base+25*time.Millisecond {
			t.Fatalf("retryBackoff(%d) = %v, want in [%v, %v)", attempt, d, base, base+25*time.Millisecond)
		}
	}
	if retryBackoff(1, 1, 1) == retryBackoff(1, 2, 1) && retryBackoff(2, 1, 1) == retryBackoff(2, 2, 1) {
		t.Fatal("backoff jitter identical across client identities")
	}
}

// TestClientScanFallback: there is none. Against a server that answers 404
// on /v1/scan the merged iteration returns that 404 as its error and the
// error-free EachRecord panics with it (the documented contract of that
// surface); either way nothing is delivered and exactly one request is
// made — no per-rack /v1/query stand-in.
func TestClientScanFallback(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	fillStore(t, store, netTrace(6))
	inner := NewServer(store, ServerOptions{}).Handler()
	var requests []string
	noScan := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests = append(requests, r.URL.Path)
		if r.URL.Path == "/v1/scan" {
			http.NotFound(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer noScan.Close()
	client := NewClient(noScan.URL, ClientOptions{})
	is404 := func(err error) bool {
		var he *httpError
		return errors.As(err, &he) && he.code == http.StatusNotFound
	}

	delivered := 0
	err := client.EachRecordMergedTier(2, func(sensors.Record, envdb.Tier) bool {
		delivered++
		return true
	})
	if !is404(err) {
		t.Fatalf("merged scan = %v, want the server's 404 as the error", err)
	}

	func() {
		defer func() {
			if err, _ := recover().(error); !is404(err) {
				t.Fatalf("EachRecord panicked with %v, want the server's 404", err)
			}
		}()
		client.EachRecord(func(sensors.Record) { delivered++ })
		t.Fatal("EachRecord returned instead of panicking")
	}()

	if delivered != 0 {
		t.Fatalf("%d records delivered by failed scans", delivered)
	}
	if want := []string{"/v1/scan", "/v1/scan"}; !reflect.DeepEqual(requests, want) {
		t.Fatalf("requests %v, want one /v1/scan per call and nothing else", requests)
	}
}

// TestClientCSV: the client's CSV surface matches the store's byte for
// byte, and an import round-trips through the wire.
func TestClientCSV(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	fillStore(t, store, netTrace(5))
	_, client := startServer(t, store)

	var fromStore, fromClient bytes.Buffer
	if err := store.ExportCSV(&fromStore); err != nil {
		t.Fatal(err)
	}
	if err := client.ExportCSV(&fromClient); err != nil {
		t.Fatal(err)
	}
	if fromStore.String() != fromClient.String() {
		t.Fatal("client CSV export differs from store export")
	}

	dst := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	_, dstClient := startServer(t, dst)
	if err := dstClient.ImportCSV(bytes.NewReader(fromStore.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != store.Len() {
		t.Fatalf("imported %d records over the wire, want %d", dst.Len(), store.Len())
	}
	var reexport bytes.Buffer
	if err := dst.ExportCSV(&reexport); err != nil {
		t.Fatal(err)
	}
	if reexport.String() != fromStore.String() {
		t.Fatal("CSV push round-trip changed the data")
	}
}

// TestClientInterfaces pins the capability set other packages type-assert.
func TestClientInterfaces(t *testing.T) {
	var db envdb.DB = NewClient("http://unused", ClientOptions{})
	if _, ok := db.(envdb.Aggregator); !ok {
		t.Error("Client does not satisfy envdb.Aggregator")
	}
	if _, ok := db.(envdb.ShardScanner); !ok {
		t.Error("Client does not satisfy envdb.ShardScanner")
	}
	if _, ok := db.(envdb.TierScanner); !ok {
		t.Error("Client does not satisfy envdb.TierScanner")
	}
}

// TestClientErrorPanics: the error-free read surface panics (rather than
// returning zero values) when the server is unreachable.
func TestClientErrorPanics(t *testing.T) {
	client := NewClient("http://127.0.0.1:1", ClientOptions{
		HTTPClient: &http.Client{Timeout: 200 * time.Millisecond},
	})
	defer func() {
		if recover() == nil {
			t.Fatal("Len on unreachable server returned instead of panicking")
		}
	}()
	client.Len()
}
