package campaign

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mira/internal/atomicfile"
)

// Job states. Only pending, done, and failed are ever persisted: "running"
// is an in-memory lease, so a dispatcher crash demotes every in-flight job
// back to pending simply by reopening the directory — recovery is the
// absence of lease state, not a repair pass.
const (
	StatePending = "pending"
	StateRunning = "running" // in-memory only: pending + unexpired lease
	StateDone    = "done"
	StateFailed  = "failed"
)

// jobRecord is the durable form of one queue entry, framed under queueMagic
// with the envelope CRC, one file per job.
type jobRecord struct {
	ID     uint64     `json:"id"`
	State  string     `json:"state"`
	Spec   JobSpec    `json:"spec"`
	Result *RunResult `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// lease tracks one in-memory claim.
type lease struct {
	worker  uint64
	attempt int
	expiry  time.Time
}

// claimVerdict is the commit-gated dedup state for one worker: the answer
// given to its highest claim sequence, replayed verbatim when the worker
// blind-retries the same sequence after a lost response. Same pattern as
// telemetrynet's (clientID, seq) ingest tokens.
type claimVerdict struct {
	seq   uint64
	jobID uint64 // 0 = "no job was available"
	el    *list.Element
}

// QueueOptions configures OpenQueue.
type QueueOptions struct {
	// Lease is how long a claim stays valid without a heartbeat
	// (default 30 s).
	Lease time.Duration
	// MaxAttempts parks a job as failed after this many worker-reported
	// failures (default 3). Lease expiries do not count — a slow worker is
	// not a broken job.
	MaxAttempts int
	// MaxWorkers bounds the claim-dedup table, LRU-evicted (default 1024).
	MaxWorkers int
	// Now overrides the clock for tests (default time.Now).
	Now func() time.Time
}

func (o QueueOptions) withDefaults() QueueOptions {
	if o.Lease <= 0 {
		o.Lease = 30 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = 1024
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Queue is the durable campaign job queue. Every committed state transition
// is a whole-file rewrite through internal/atomicfile (tmp, fsync, rename,
// then fsync of the directory) — the same discipline as tsdb segments —
// ordered disk-first: memory only changes after the rename lands, so a
// crash at any point leaves either the old committed state or the new one,
// never a half-transition.
type Queue struct {
	dir  string
	opts QueueOptions

	mu       sync.Mutex
	jobs     map[uint64]*jobRecord
	leases   map[uint64]*lease
	nextID   uint64
	attempts map[uint64]int // worker-reported failures per job (in-memory)
	claims   map[uint64]int // times each job has been handed out (in-memory)

	workers map[uint64]*claimVerdict
	lru     *list.List // claimVerdict owners, front = most recent
}

// OpenQueue opens or creates a queue directory, recovering committed jobs.
// Stray .tmp files from a crashed write are ignored and cleared; a damaged
// job file fails the open with ErrCorrupt rather than silently dropping a
// job.
func OpenQueue(dir string, opts QueueOptions) (*Queue, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: open queue: %w", err)
	}
	q := &Queue{
		dir:      dir,
		opts:     opts.withDefaults(),
		jobs:     make(map[uint64]*jobRecord),
		leases:   make(map[uint64]*lease),
		attempts: make(map[uint64]int),
		claims:   make(map[uint64]int),
		workers:  make(map[uint64]*claimVerdict),
		lru:      list.New(),
		nextID:   1,
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("campaign: open queue: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A crash between tmp write and rename: the transition never
			// committed, so the leftover is garbage by construction.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".cjob") {
			continue
		}
		rec, err := readJobFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if _, dup := q.jobs[rec.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate job id %d", ErrCorrupt, rec.ID)
		}
		q.jobs[rec.ID] = rec
		if rec.ID >= q.nextID {
			q.nextID = rec.ID + 1
		}
	}
	q.setGauges()
	return q, nil
}

// jobPath names a job's durable file.
func (q *Queue) jobPath(id uint64) string {
	return filepath.Join(q.dir, fmt.Sprintf("job-%08d.cjob", id))
}

func readJobFile(path string) (*jobRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: read %s: %w", filepath.Base(path), err)
	}
	payload, err := decodeEnvelope(queueMagic, ErrCorrupt, b)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, filepath.Base(path))
	}
	var rec jobRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(path), err)
	}
	switch rec.State {
	case StatePending, StateDone, StateFailed:
	default:
		return nil, fmt.Errorf("%w: %s: state %q", ErrCorrupt, filepath.Base(path), rec.State)
	}
	return &rec, nil
}

// writeJobFile commits rec to disk atomically and durably: marshal, frame,
// publish over the final name, fsync the directory. The caller mutates
// memory only after this returns nil. The crash tests stop it between the
// tmp write and the rename, and after the rename but before the in-memory
// commit, through atomicfile.Hook.
func (q *Queue) writeJobFile(rec *jobRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("campaign: encode job %d: %w", rec.ID, err)
	}
	framed := encodeEnvelope(queueMagic, payload)
	err = atomicfile.Write(q.jobPath(rec.ID), func(w io.Writer) error {
		_, err := w.Write(framed)
		return err
	})
	if err == nil {
		err = atomicfile.SyncDir(q.dir)
	}
	if err != nil {
		return fmt.Errorf("campaign: commit job %d: %w", rec.ID, err)
	}
	return nil
}

// Submit validates and durably appends a job, returning its ID.
func (q *Queue) Submit(spec JobSpec) (uint64, error) {
	if spec.Version == 0 {
		spec.Version = SpecVersion
	}
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	rec := &jobRecord{ID: q.nextID, State: StatePending, Spec: spec}
	if err := q.writeJobFile(rec); err != nil {
		return 0, err
	}
	q.nextID++
	q.jobs[rec.ID] = rec
	metSubmitted.Inc()
	q.setGauges()
	return rec.ID, nil
}

// expireLocked requeues every job whose lease has lapsed. Nothing touches
// disk: a lease was never persisted, so expiry is purely forgetting it.
func (q *Queue) expireLocked(now time.Time) {
	for id, l := range q.leases {
		if now.After(l.expiry) {
			delete(q.leases, id)
			metLeaseExpired.Inc()
		}
	}
}

// touchWorkerLocked moves or inserts the worker's dedup entry at the LRU
// front, evicting the coldest entry past the cap.
func (q *Queue) touchWorkerLocked(worker uint64) *claimVerdict {
	v := q.workers[worker]
	if v == nil {
		v = &claimVerdict{}
		v.el = q.lru.PushFront(worker)
		q.workers[worker] = v
		for q.lru.Len() > q.opts.MaxWorkers {
			old := q.lru.Back()
			delete(q.workers, old.Value.(uint64))
			q.lru.Remove(old)
		}
	} else {
		q.lru.MoveToFront(v.el)
	}
	return v
}

// Claim hands the lowest-ID pending job to the worker under a fresh lease.
// It is idempotent under blind retry: a (worker, seq) pair already answered
// returns the same verdict — the same job with a renewed lease, or the same
// "nothing available" — instead of consuming a second job. A response with
// JobID zero carries the queue depths so the worker can tell "try later"
// from "sweep drained".
func (q *Queue) Claim(worker, seq uint64) (ClaimResponse, error) {
	if worker == 0 || seq == 0 {
		return ClaimResponse{}, fmt.Errorf("campaign: claim: worker and seq must be nonzero")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opts.Now()
	q.expireLocked(now)
	defer q.setGauges()

	v := q.touchWorkerLocked(worker)
	if seq < v.seq {
		return ClaimResponse{}, fmt.Errorf("campaign: claim: stale seq %d < %d for worker %d", seq, v.seq, worker)
	}
	if seq == v.seq && v.jobID != 0 {
		// Retried claim: if the job is still this worker's, replay the
		// verdict with a renewed lease. If the lease meanwhile expired and
		// moved on, fall through and claim fresh — completion dedup keeps
		// the sweep exactly-once even if both runs finish.
		if l, ok := q.leases[v.jobID]; ok && l.worker == worker {
			l.expiry = now.Add(q.opts.Lease)
			metClaimDups.Inc()
			return q.claimResponseLocked(v.jobID, l), nil
		}
	}

	// Fresh claim: lowest pending job without a live lease.
	var pick *jobRecord
	for _, rec := range q.jobs {
		if rec.State != StatePending {
			continue
		}
		if _, leased := q.leases[rec.ID]; leased {
			continue
		}
		if pick == nil || rec.ID < pick.ID {
			pick = rec
		}
	}
	v.seq = seq
	if pick == nil {
		v.jobID = 0
		p, r := q.depthsLocked()
		return ClaimResponse{Pending: p, Running: r}, nil
	}
	q.claims[pick.ID]++
	l := &lease{worker: worker, attempt: q.claims[pick.ID], expiry: now.Add(q.opts.Lease)}
	q.leases[pick.ID] = l
	v.jobID = pick.ID
	metClaims.Inc()
	return q.claimResponseLocked(pick.ID, l), nil
}

func (q *Queue) claimResponseLocked(id uint64, l *lease) ClaimResponse {
	spec := q.jobs[id].Spec
	p, r := q.depthsLocked()
	return ClaimResponse{
		JobID:   id,
		Spec:    &spec,
		Attempt: l.attempt,
		LeaseMS: q.opts.Lease.Milliseconds(),
		Pending: p,
		Running: r,
	}
}

// Heartbeat renews the worker's lease. A lapsed or stolen lease returns
// ErrLeaseLost so the worker abandons the run.
func (q *Queue) Heartbeat(jobID, worker uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opts.Now()
	q.expireLocked(now)
	defer q.setGauges()
	l, ok := q.leases[jobID]
	if !ok || l.worker != worker {
		return fmt.Errorf("%w: job %d worker %d", ErrLeaseLost, jobID, worker)
	}
	l.expiry = now.Add(q.opts.Lease)
	metHeartbeats.Inc()
	return nil
}

// CompleteStatus reports what a completion did.
type CompleteStatus string

const (
	// Completed: the result was durably stored, first finisher.
	Completed CompleteStatus = "completed"
	// DuplicateComplete: the job was already done; the result is discarded
	// and the call is a no-op — the exactly-once edge.
	DuplicateComplete CompleteStatus = "duplicate"
)

// Complete durably stores the job's result and marks it done, disk-first.
// Completing an already-done job — a retried request whose first response
// was lost, or the loser of a lease-expiry double run — is a no-op
// duplicate. The completing worker need not hold the lease: a worker that
// finished after losing its lease still carries a valid result, and the
// done-state check is what makes the race exactly-once.
func (q *Queue) Complete(jobID, worker uint64, res RunResult) (CompleteStatus, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(q.opts.Now())
	defer q.setGauges()
	rec, ok := q.jobs[jobID]
	if !ok {
		return "", fmt.Errorf("%w: job %d", ErrNoJob, jobID)
	}
	if rec.State == StateDone {
		metCompleteDups.Inc()
		return DuplicateComplete, nil
	}
	res.JobID = jobID
	res.Name = rec.Spec.Name
	res.Seed = rec.Spec.Seed
	res.Worker = worker
	next := *rec
	next.State = StateDone
	next.Result = &res
	next.Error = ""
	if err := q.writeJobFile(&next); err != nil {
		return "", err
	}
	*rec = next
	delete(q.leases, jobID)
	metCompleted.Inc()
	return Completed, nil
}

// Fail records a worker-reported run failure: the lease is released and the
// job requeues, until MaxAttempts failures park it as failed on disk.
func (q *Queue) Fail(jobID, worker uint64, cause string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(q.opts.Now())
	defer q.setGauges()
	rec, ok := q.jobs[jobID]
	if !ok {
		return fmt.Errorf("%w: job %d", ErrNoJob, jobID)
	}
	if rec.State != StatePending {
		return nil // already done or parked; nothing to requeue
	}
	if l, ok := q.leases[jobID]; ok && l.worker == worker {
		delete(q.leases, jobID)
	}
	q.attempts[jobID]++
	if q.attempts[jobID] >= q.opts.MaxAttempts {
		next := *rec
		next.State = StateFailed
		next.Error = cause
		if err := q.writeJobFile(&next); err != nil {
			return err
		}
		*rec = next
		metFailed.Inc()
		return nil
	}
	metRequeues.Inc()
	return nil
}

// depthsLocked counts pending (claimable) and running (leased) jobs.
func (q *Queue) depthsLocked() (pending, running int) {
	for _, rec := range q.jobs {
		if rec.State != StatePending {
			continue
		}
		if _, leased := q.leases[rec.ID]; leased {
			running++
		} else {
			pending++
		}
	}
	return pending, running
}

func (q *Queue) setGauges() {
	p, r := q.depthsLocked()
	metPending.Set(float64(p))
	metRunning.Set(float64(r))
}

// JobStatus is one row of the queue's externally visible state.
type JobStatus struct {
	ID      uint64 `json:"id"`
	Name    string `json:"name"`
	State   string `json:"state"` // pending | running | done | failed
	Worker  uint64 `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Error   string `json:"error,omitempty"`
}

// Status snapshots every job, ID-ordered, with leases surfaced as
// "running".
func (q *Queue) Status() []JobStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(q.opts.Now())
	out := make([]JobStatus, 0, len(q.jobs))
	for _, rec := range q.jobs {
		st := JobStatus{ID: rec.ID, Name: rec.Spec.Name, State: rec.State, Error: rec.Error}
		if l, ok := q.leases[rec.ID]; ok && rec.State == StatePending {
			st.State = StateRunning
			st.Worker = l.worker
			st.Attempt = l.attempt
		}
		out = append(out, st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Results returns the stored RunResults of completed jobs, ID-ordered.
func (q *Queue) Results() []RunResult {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []RunResult
	for _, rec := range q.jobs {
		if rec.State == StateDone && rec.Result != nil {
			out = append(out, *rec.Result)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].JobID < out[b].JobID })
	return out
}

// Depths reports (pending, running) for drain detection.
func (q *Queue) Depths() (pending, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(q.opts.Now())
	return q.depthsLocked()
}
