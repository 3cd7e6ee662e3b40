package campaign

import (
	"context"
	"fmt"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

// BenchmarkClaimCycle times one full worker protocol round trip over real
// HTTP: claim → heartbeat → complete, including the durable completion
// write. This is the dispatcher's per-job overhead — the floor under how
// fast a sweep of trivial jobs can drain.
func BenchmarkClaimCycle(b *testing.B) {
	dir := b.TempDir()
	q, err := OpenQueue(dir, QueueOptions{Lease: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(NewDispatcher(q, nil).Handler())
	defer ts.Close()

	spec := testSpecB(b)
	for i := 0; i < b.N; i++ {
		if _, err := q.Submit(spec); err != nil {
			b.Fatal(err)
		}
	}
	w := NewWorker(ts.URL, WorkerOptions{ID: 1})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := w.claim(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if resp.JobID == 0 {
			b.Fatal("queue drained early")
		}
		hb := url.Values{"job": {fmt.Sprint(resp.JobID)}, "worker": {"1"}}
		if code, _, err := w.post(ctx, "/v1/campaign/heartbeat", hb, nil); err != nil || code != 200 {
			b.Fatalf("heartbeat: status %d err %v", code, err)
		}
		if _, err := w.complete(ctx, resp.JobID, RunResult{Records: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// testSpecB mirrors the test helper without *testing.T.
func testSpecB(b *testing.B) JobSpec {
	b.Helper()
	return JobSpec{
		Version: SpecVersion, Name: "bench", Seed: 1,
		Start: "2014-03-05", End: "2014-03-08",
	}
}
