package campaign

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mira/internal/atomicfile"
)

// errCrash simulates the process dying mid-write.
var errCrash = errors.New("injected crash")

// crashAt makes every job-file publication whose path ends in suffix fail
// with errCrash at stage, until the returned function is called.
func crashAt(stage atomicfile.Stage, suffix string) (restore func()) {
	atomicfile.Hook = func(s atomicfile.Stage, path string) error {
		if s == stage && strings.HasSuffix(path, suffix) {
			return errCrash
		}
		return nil
	}
	return func() { atomicfile.Hook = nil }
}

// TestQueueCrashBetweenTmpWriteAndRename pins the atomic-commit discipline:
// a dispatcher killed after the tmp file is written and synced but before
// the rename lands must, on reopen, see exactly the committed state — the
// interrupted transition vanishes, nothing is lost, nothing duplicated.
// Mirrors the tsdb compaction crash tests.
func TestQueueCrashBetweenTmpWriteAndRename(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	q := openTestQueue(t, dir, clock)
	if _, err := q.Submit(testSpec("committed", 1)); err != nil {
		t.Fatal(err)
	}

	// Crash during the second submit: the tmp write completes, the rename
	// never happens.
	restore := crashAt(atomicfile.BeforeRename, ".cjob")
	_, err := q.Submit(testSpec("lost", 2))
	restore()
	if !errors.Is(err, errCrash) {
		t.Fatalf("submit under failpoint: %v, want injected crash", err)
	}

	// The aborted write must not have committed in memory either.
	if st := q.Status(); len(st) != 1 {
		t.Fatalf("queue holds %d jobs after aborted submit, want 1", len(st))
	}

	// The failpoint leaves the tmp file a real SIGKILL would; make it the
	// worst leftover, one killed before the write finished.
	stray := filepath.Join(dir, "job-00000002.cjob.tmp")
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("aborted submit left no tmp file: %v", err)
	}
	if err := os.WriteFile(stray, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen: exactly the committed job, the stray tmp cleared, and the
	// next submit reuses the never-committed ID without colliding.
	q2 := openTestQueue(t, dir, clock)
	st := q2.Status()
	if len(st) != 1 || st[0].ID != 1 || st[0].Name != "committed" {
		t.Fatalf("reopened queue %+v, want only the committed job", st)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray tmp survived reopen: %v", err)
	}
	id, err := q2.Submit(testSpec("retry", 2))
	if err != nil || id != 2 {
		t.Fatalf("resubmit after crash: id %d err %v, want 2", id, err)
	}
}

// TestQueueCrashDuringComplete pins the disk-first completion order: if the
// dispatcher dies mid-completion-write, the job stays pending (claimable,
// re-runnable) and the retried completion commits exactly once.
func TestQueueCrashDuringComplete(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	q := openTestQueue(t, dir, clock)
	if _, err := q.Submit(testSpec("flaky-finish", 1)); err != nil {
		t.Fatal(err)
	}
	if r, err := q.Claim(1, 1); err != nil || r.JobID != 1 {
		t.Fatalf("claim: %+v %v", r, err)
	}

	restore := crashAt(atomicfile.BeforeRename, "job-00000001.cjob")
	_, err := q.Complete(1, 1, RunResult{Records: 5})
	restore()
	if !errors.Is(err, errCrash) {
		t.Fatalf("complete under failpoint: %v, want injected crash", err)
	}

	// The failed write committed nothing: still pending on disk and in
	// memory, no result stored.
	if res := q.Results(); len(res) != 0 {
		t.Fatalf("aborted completion stored a result: %+v", res)
	}
	q2 := openTestQueue(t, dir, clock)
	if st := q2.Status(); st[0].State != StatePending {
		t.Fatalf("reopened state %v, want pending (completion never committed)", st[0].State)
	}

	// The retried completion (same worker, after recovery) commits once.
	if r, err := q2.Claim(1, 1); err != nil || r.JobID != 1 {
		t.Fatalf("reclaim: %+v %v", r, err)
	}
	if st, err := q2.Complete(1, 1, RunResult{Records: 5}); err != nil || st != Completed {
		t.Fatalf("retried complete: %v %v", st, err)
	}
	q3 := openTestQueue(t, dir, clock)
	if res := q3.Results(); len(res) != 1 || res[0].Records != 5 {
		t.Fatalf("final results %+v, want exactly one", res)
	}
}

// TestQueueCrashAfterRename pins the other half of the ordering: a crash
// after the rename but before the in-memory update loses nothing — the
// transition is already durable, and reopen sees it.
func TestQueueCrashAfterRename(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	q := openTestQueue(t, dir, clock)

	restore := crashAt(atomicfile.AfterRename, ".cjob")
	_, err := q.Submit(testSpec("durable", 1))
	restore()
	if !errors.Is(err, errCrash) {
		t.Fatalf("submit under failpoint: %v, want injected crash", err)
	}

	// The write landed before the "crash": reopen finds the job even though
	// the submitting dispatcher never acknowledged it.
	q2 := openTestQueue(t, dir, clock)
	st := q2.Status()
	if len(st) != 1 || st[0].Name != "durable" || st[0].State != StatePending {
		t.Fatalf("reopened queue %+v, want the renamed job pending", st)
	}
}

// TestQueueCorruptFileRejected: a bit-flipped job file fails the CRC and
// surfaces as ErrCorrupt at open, never a panic or a silent drop.
func TestQueueCorruptFileRejected(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	q := openTestQueue(t, dir, clock)
	if _, err := q.Submit(testSpec("soon-corrupt", 1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "job-00000001.cjob")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenQueue(dir, QueueOptions{Now: clock.Now}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over corrupt file: %v, want ErrCorrupt", err)
	}
}

// TestQueueCommitSyncsDirectory pins the power-failure half of a commit:
// every transition renames its job file and then fsyncs the queue directory
// — once per job file, never before the rename it is there to make durable.
func TestQueueCommitSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	var stages []atomicfile.Stage
	atomicfile.Hook = func(s atomicfile.Stage, path string) error {
		if s == atomicfile.DirSync && path != dir {
			t.Errorf("synced %s, want the queue directory %s", path, dir)
		}
		if s != atomicfile.BeforeRename {
			stages = append(stages, s)
		}
		return nil
	}
	defer func() { atomicfile.Hook = nil }()

	q := openTestQueue(t, dir, newFakeClock())
	if _, err := q.Submit(testSpec("one", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(testSpec("two", 2)); err != nil {
		t.Fatal(err)
	}
	if r, err := q.Claim(1, 1); err != nil || r.JobID != 1 {
		t.Fatalf("claim: %+v %v", r, err)
	}
	if _, err := q.Complete(1, 1, RunResult{Records: 5}); err != nil {
		t.Fatal(err)
	}
	want := []atomicfile.Stage{
		atomicfile.AfterRename, atomicfile.DirSync, // submit one
		atomicfile.AfterRename, atomicfile.DirSync, // submit two
		atomicfile.AfterRename, atomicfile.DirSync, // complete one
	}
	if !reflect.DeepEqual(stages, want) {
		t.Fatalf("publication stages %v, want rename then directory sync per commit %v", stages, want)
	}
}
