package campaign

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mira/internal/obs"
	"mira/internal/telemetrynet/faultinject"
)

// startDispatcher serves a queue over httptest.
func startDispatcher(t *testing.T, q *Queue) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewDispatcher(q, nil).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// stubRun returns a deterministic result derived from the spec without
// simulating, optionally stalling until release closes.
func stubRun(release <-chan struct{}) func(context.Context, JobSpec) (RunResult, error) {
	return func(ctx context.Context, spec JobSpec) (RunResult, error) {
		if release != nil {
			select {
			case <-release:
			case <-ctx.Done():
				return RunResult{}, ctx.Err()
			}
		}
		return RunResult{Records: int(spec.Seed) * 100, CMFailures: int(spec.Seed)}, nil
	}
}

func TestDispatcherHTTPLifecycle(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueOptions{Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := startDispatcher(t, q)
	cl := NewClient(ts.URL, nil)
	ctx := context.Background()

	for i := int64(1); i <= 2; i++ {
		id, err := cl.Submit(ctx, testSpec(fmt.Sprintf("s%d", i), i))
		if err != nil || id != uint64(i) {
			t.Fatalf("submit %d: id %d err %v", i, id, err)
		}
	}
	// A malformed submit is rejected, not enqueued.
	if _, err := cl.Submit(ctx, JobSpec{Name: "nope"}); err == nil {
		t.Fatal("invalid spec accepted over HTTP")
	}

	w := NewWorker(ts.URL, WorkerOptions{Run: stubRun(nil), Poll: 5 * time.Millisecond})
	if err := w.RunLoop(); err != nil {
		t.Fatal(err)
	}
	if w.Completed != 2 || w.Duplicates != 0 {
		t.Fatalf("worker completed %d (dups %d), want 2 (0)", w.Completed, w.Duplicates)
	}
	res, err := cl.Results(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Records != 100 || res[1].Records != 200 {
		t.Fatalf("results %+v, want the two stub outcomes", res)
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range st {
		if s.State != StateDone {
			t.Fatalf("job %d state %s, want done", s.ID, s.State)
		}
	}
}

// TestCampaignExactlyOnceUnderLossyTransport reuses the extracted
// fault-injection transport against the claim/complete protocol: requests
// dropped before application, responses lost after application, and whole
// requests delivered twice. Workers retry blindly; every job must still
// complete exactly once.
func TestCampaignExactlyOnceUnderLossyTransport(t *testing.T) {
	const jobs = 9
	q, err := OpenQueue(t.TempDir(), QueueOptions{Lease: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &faultinject.Transport{
		Inner: NewDispatcher(q, nil).Handler(),
		Rule: func(method, path string, attempt int64) faultinject.Action {
			switch {
			case attempt%3 == 0:
				return faultinject.Drop
			case attempt%7 == 0:
				return faultinject.Blackhole
			case attempt%5 == 0:
				return faultinject.Duplicate
			}
			return faultinject.Pass
		},
	}
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	for i := int64(1); i <= jobs; i++ {
		if _, err := q.Submit(testSpec(fmt.Sprintf("lossy%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	workers := make([]*Worker, 2)
	errs := make([]error, len(workers))
	for i := range workers {
		workers[i] = NewWorker(ts.URL, WorkerOptions{
			ID:   uint64(i + 1),
			Run:  stubRun(nil),
			Poll: 5 * time.Millisecond,
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = workers[i].RunLoop()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	if flaky.Injected(faultinject.Drop) == 0 || flaky.Injected(faultinject.Blackhole) == 0 ||
		flaky.Injected(faultinject.Duplicate) == 0 {
		t.Fatalf("fault schedule never fired: drop=%d blackhole=%d duplicate=%d",
			flaky.Injected(faultinject.Drop), flaky.Injected(faultinject.Blackhole),
			flaky.Injected(faultinject.Duplicate))
	}
	res := q.Results()
	if len(res) != jobs {
		t.Fatalf("results store holds %d, want %d", len(res), jobs)
	}
	seen := map[uint64]bool{}
	for _, r := range res {
		if seen[r.JobID] {
			t.Fatalf("job %d completed twice", r.JobID)
		}
		seen[r.JobID] = true
		if r.Records != int(r.Seed)*100 {
			t.Fatalf("job %d records %d, want %d", r.JobID, r.Records, r.Seed*100)
		}
	}
	// An injected Duplicate can make the true first completion read back as
	// a duplicate on the worker side, so the worker-visible invariant is
	// coverage, not an exact count; the store above is the exact-once pin.
	if done := workers[0].Completed + workers[0].Duplicates +
		workers[1].Completed + workers[1].Duplicates; done < jobs {
		t.Fatalf("workers report %d completion outcomes, want >= %d", done, jobs)
	}
}

// TestSweepSurvivesKilledWorkerAndDispatcherRestart is the acceptance pin:
// a 3-job sweep across 2 workers, with one worker killed mid-job and the
// dispatcher restarted once mid-sweep, still completes every job exactly
// once and the results store holds all three RunResults.
func TestSweepSurvivesKilledWorkerAndDispatcherRestart(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueOptions{Lease: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := startDispatcher(t, q)
	cl := NewClient(ts.URL, nil)
	for i := int64(1); i <= 3; i++ {
		if _, err := cl.Submit(context.Background(), testSpec(fmt.Sprintf("sweep%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}

	// Worker A claims job 1 and stalls inside the run; killing its context
	// is the in-process stand-in for kill -9.
	stall := make(chan struct{})
	actx, kill := context.WithCancel(context.Background())
	a := NewWorker(ts.URL, WorkerOptions{ID: 11, Run: stubRun(stall), Context: actx, Poll: 5 * time.Millisecond})
	aDone := make(chan error, 1)
	go func() { aDone <- a.RunLoop() }()
	waitFor(t, time.Second, func() bool {
		for _, s := range q.Status() {
			if s.State == StateRunning && s.Worker == 11 {
				return true
			}
		}
		return false
	})
	kill()
	<-aDone

	// Dispatcher "crashes" and restarts over the same directory: the killed
	// worker's in-flight job demotes back to pending.
	ts.Close()
	q2, err := OpenQueue(dir, QueueOptions{Lease: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range q2.Status() {
		if s.State != StatePending {
			t.Fatalf("job %d state %s after restart, want pending", s.ID, s.State)
		}
	}
	ts2 := startDispatcher(t, q2)

	// Two fresh workers drain the sweep.
	var wg sync.WaitGroup
	bc := make([]*Worker, 2)
	errs := make([]error, 2)
	for i := range bc {
		bc[i] = NewWorker(ts2.URL, WorkerOptions{ID: uint64(20 + i), Run: stubRun(nil), Poll: 5 * time.Millisecond})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = bc[i].RunLoop()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	res, err := NewClient(ts2.URL, nil).Results(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results store holds %d RunResults, want all 3", len(res))
	}
	seen := map[uint64]bool{}
	for _, r := range res {
		if seen[r.JobID] {
			t.Fatalf("job %d completed twice", r.JobID)
		}
		seen[r.JobID] = true
	}
	if done := bc[0].Completed + bc[1].Completed; done != 3 {
		t.Fatalf("replacement workers completed %d jobs, want 3", done)
	}
	// And the diff table renders one row per job plus header/baseline.
	table := FormatDiffTable(res)
	for _, want := range []string{"sweep1", "sweep2", "sweep3", "baseline: job 1"} {
		if !strings.Contains(table, want) {
			t.Fatalf("diff table missing %q:\n%s", want, table)
		}
	}
}

// TestClaimCompleteTracePropagation pins the wire trace: a worker claim
// carried out under a client span must parent the dispatcher's handler
// span, and the completion likewise — one coherent trace across the RPC.
func TestClaimCompleteTracePropagation(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueOptions{Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := startDispatcher(t, q)
	if _, err := q.Submit(testSpec("traced", 1)); err != nil {
		t.Fatal(err)
	}

	ctx, root := obs.Span(context.Background(), "test.campaign_e2e")
	w := NewWorker(ts.URL, WorkerOptions{ID: 3, Run: stubRun(nil), Context: ctx, Poll: 5 * time.Millisecond})
	if err := w.RunLoop(); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans := waitTrace(t, root.Context().Trace,
		"test.campaign_e2e", "campaign.worker.claim", "campaign.claim",
		"campaign.worker.complete", "campaign.complete")
	clientClaim := spanByName(t, spans, "campaign.worker.claim")
	handlerClaim := spanByName(t, spans, "campaign.claim")
	if handlerClaim.Parent != clientClaim.ID {
		t.Fatalf("campaign.claim parent %s, want worker span %s: trace did not cross the wire",
			handlerClaim.Parent, clientClaim.ID)
	}
	clientDone := spanByName(t, spans, "campaign.worker.complete")
	handlerDone := spanByName(t, spans, "campaign.complete")
	if handlerDone.Parent != clientDone.ID {
		t.Fatalf("campaign.complete parent %s, want worker span %s", handlerDone.Parent, clientDone.ID)
	}
}

// waitTrace polls the default registry's ring until the trace's merged
// fragments contain every wanted span name (the last fragment can land just
// after the client-side call returns).
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

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
