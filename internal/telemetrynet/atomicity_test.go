package telemetrynet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mira/internal/sensors"
	"mira/internal/telemetrynet/faultinject"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/tsdb"
)

// postFrame POSTs one encoded ingest frame and returns the response status
// plus the decoded result (valid only on 200).
func postFrame(t *testing.T, url string, frame []byte) (int, IngestResult) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res IngestResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, res
}

// storeDump flattens a store bit-for-bit comparably, reading it rack by
// rack through Query in fleet order.
func storeDump(db *tsdb.Store) []string {
	var out []string
	fleet := db.Fleet()
	for g := 0; g < fleet.NumRacks(); g++ {
		for _, r := range db.Query(fleet.RackAt(g), time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)) {
			line := fmt.Sprintf("%d %v", r.Time.UnixNano(), r.Rack)
			for _, m := range sensors.AllMetrics() {
				line += fmt.Sprintf(" %x", math.Float64bits(r.Value(m)))
			}
			out = append(out, line)
		}
	}
	return out
}

func sameDump(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIngestRejectedBatchAtomic is the ingest-atomicity regression pin: a
// batch the store rejects mid-frame (out-of-order telemetry) gets a 409,
// leaves the store byte-identical — no partial prefix — and leaves the
// (client, seq) dedup token unconsumed, so the corrected batch retried
// under the same sequence is accepted in full.
func TestIngestRejectedBatchAtomic(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	ts, _ := startServer(t, store)

	seed := netTrace(2)
	if code, res := postFrame(t, ts.URL, encodeIngestFrame(nil, 9, 1, seed)); code != http.StatusOK || res.AcceptedRecords != len(seed) {
		t.Fatalf("seed push: status %d, %+v", code, res)
	}
	before := storeDump(store)

	// Tick 2 with one record rewound before the stored watermark: the kind
	// of client data error that used to leave a partial prefix behind.
	next := netTrace(3)[2*topology.NumRacks:]
	bad := append([]sensors.Record(nil), next...)
	bad[30].Time = bad[30].Time.Add(-time.Hour)
	errsBefore := metIngestErrors.Value()
	if code, _ := postFrame(t, ts.URL, encodeIngestFrame(nil, 9, 2, bad)); code != http.StatusConflict {
		t.Fatalf("bad batch status = %d, want 409", code)
	}
	if got := metIngestErrors.Value() - errsBefore; got != 1 {
		t.Fatalf("mira_net_ingest_errors_total advanced by %d, want 1", got)
	}
	if !sameDump(storeDump(store), before) {
		t.Fatal("store changed across a rejected batch; want byte-identical")
	}

	// Same client, same sequence, corrected data: the token was not
	// consumed by the failure, so this must be applied, not deduplicated.
	if code, res := postFrame(t, ts.URL, encodeIngestFrame(nil, 9, 2, next)); code != http.StatusOK ||
		res.AcceptedBatches != 1 || res.DuplicateBatches != 0 {
		t.Fatalf("corrected retry: status %d, %+v; want 1 accepted, 0 duplicate", code, res)
	}
	if want := len(seed) + len(next); store.Len() != want {
		t.Fatalf("store has %d records, want %d", store.Len(), want)
	}
	// And now the token is consumed: a replay is a duplicate.
	if code, res := postFrame(t, ts.URL, encodeIngestFrame(nil, 9, 2, next)); code != http.StatusOK || res.DuplicateBatches != 1 {
		t.Fatalf("replay after commit: status %d, %+v; want 1 duplicate", code, res)
	}
}

// TestDedupEviction pins the LRU bound on the dedup table: the gauge tracks
// the live entry count against the cap, eviction drops the
// least-recently-active client, and an evicted client's genuinely stale
// replay is still rejected — by the store's own per-rack time-order check —
// rather than silently re-admitted under a fresh watermark.
func TestDedupEviction(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	srv := NewServer(store, ServerOptions{DedupClients: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ticks := netTrace(4)
	tick := func(i int) []sensors.Record { return ticks[i*topology.NumRacks : (i+1)*topology.NumRacks] }

	// Client 1 pushes ticks 0 and 1; clients 2 and 3 push later ticks,
	// evicting client 1 from the two-entry table.
	for i, push := range []struct {
		client, seq uint64
		recs        []sensors.Record
	}{
		{1, 1, tick(0)}, {1, 2, tick(1)}, {2, 1, tick(2)}, {3, 1, tick(3)},
	} {
		if code, res := postFrame(t, ts.URL, encodeIngestFrame(nil, push.client, push.seq, push.recs)); code != http.StatusOK || res.AcceptedBatches != 1 {
			t.Fatalf("push %d: status %d, %+v", i, code, res)
		}
	}
	if got := metDedupClients.Value(); got != 2 {
		t.Fatalf("mira_net_dedup_clients = %v, want 2 (LRU cap)", got)
	}
	srv.mu.Lock()
	_, resident := srv.clients[1]
	srv.mu.Unlock()
	if resident {
		t.Fatal("client 1 still in the dedup table; want it evicted as least recently active")
	}

	// Evicted client 1 replays its first batch under a reused sequence.
	// The server no longer remembers the watermark, but the store's
	// time-order check rejects the stale telemetry: 409, store unchanged.
	before := storeDump(store)
	if code, _ := postFrame(t, ts.URL, encodeIngestFrame(nil, 1, 1, tick(0))); code != http.StatusConflict {
		t.Fatalf("stale replay after eviction: status %d, want 409", code)
	}
	if !sameDump(storeDump(store), before) {
		t.Fatal("store changed on a stale replay after eviction")
	}

	// Fresh telemetry from the returning client is accepted normally.
	fresh := netTrace(5)[4*topology.NumRacks:]
	if code, res := postFrame(t, ts.URL, encodeIngestFrame(nil, 1, 2, fresh)); code != http.StatusOK || res.AcceptedBatches != 1 {
		t.Fatalf("fresh push after eviction: status %d, %+v", code, res)
	}
}

// TestExactlyOnceUnderLossyTransport is the end-to-end idempotency pin:
// several clients push distinct batch streams concurrently through a
// faultinject.Transport that drops requests before application (503 every
// third attempt) and responses after application (connection killed every
// seventh), every failure is blindly retried under the same (client, seq)
// token, and the store ends up with exactly the union of the unique
// batches — nothing lost, nothing doubled.
func TestExactlyOnceUnderLossyTransport(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	flaky := &faultinject.Transport{
		Inner: NewServer(store, ServerOptions{}).Handler(),
		Rule:  faultinject.EveryNth(3, 7),
	}
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	const clients = 8
	const batches = 12
	start := time.Date(2014, 5, 20, 0, 0, 0, 0, timeutil.Chicago)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client owns six racks, so the union is checkable per rack.
			racks := make([]topology.RackID, 0, 6)
			for r := c * 6; r < (c+1)*6; r++ {
				racks = append(racks, topology.RackByIndex(r))
			}
			for seq := 1; seq <= batches; seq++ {
				recs := make([]sensors.Record, 0, len(racks))
				ti := start.Add(time.Duration(seq) * timeutil.SampleInterval)
				for _, rack := range racks {
					recs = append(recs, netTrace(1)[0]) // template values
					recs[len(recs)-1].Time = ti
					recs[len(recs)-1].Rack = rack
				}
				frame := encodeIngestFrame(nil, uint64(c+1), uint64(seq), recs)
				committed := false
				for attempt := 0; attempt < 50 && !committed; attempt++ {
					resp, err := http.Post(ts.URL+"/v1/ingest", "application/octet-stream", bytes.NewReader(frame))
					if err != nil {
						continue // transport failure: blind retry
					}
					code := resp.StatusCode
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if code == http.StatusOK {
						committed = true // accepted now or deduplicated earlier
					}
				}
				if !committed {
					errs[c] = fmt.Errorf("client %d seq %d never committed", c, seq)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if flaky.Injected(faultinject.Drop) == 0 || flaky.Injected(faultinject.Blackhole) == 0 {
		t.Fatalf("fault schedule never fired (drop=%d blackhole=%d); test proved nothing",
			flaky.Injected(faultinject.Drop), flaky.Injected(faultinject.Blackhole))
	}
	if want := clients * batches * 6; store.Len() != want {
		t.Fatalf("store has %d records, want exactly %d (union of unique batches)", store.Len(), want)
	}
	// Per rack: exactly one record per batch sequence, strictly once.
	for c := 0; c < clients; c++ {
		for r := c * 6; r < (c+1)*6; r++ {
			got := store.Query(topology.RackByIndex(r), start, start.Add(time.Duration(batches+1)*timeutil.SampleInterval))
			if len(got) != batches {
				t.Fatalf("rack %d holds %d records, want %d", r, len(got), batches)
			}
			for i := 1; i < len(got); i++ {
				if !got[i].Time.After(got[i-1].Time) {
					t.Fatalf("rack %d: duplicate or disordered records at %v", r, got[i].Time)
				}
			}
		}
	}
}
