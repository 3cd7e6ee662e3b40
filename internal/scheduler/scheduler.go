// Package scheduler simulates Mira's Cobalt-style job scheduler at midplane
// granularity: FIFO dispatch with probabilistic backfilling, prod-long jobs
// pinned to row 0, capability-job drains, project reservations that go
// partially unused, Monday maintenance windows with burner jobs, and
// rack-failure integration (failed racks kill their jobs and stay down).
//
// The scheduler is the mechanism behind the paper's utilization findings:
// the 80%→93% multi-year growth, the INCITE/ALCC monthly profile, the
// Monday dip, row 0's elevated utilization, and the column hotspots.
package scheduler

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/workload"
)

// MidplaneState describes what a midplane is doing for power modeling.
type MidplaneState int

const (
	// Idle: powered on, no job.
	Idle MidplaneState = iota
	// Busy: running a production job.
	Busy
	// Burning: running a maintenance burner job.
	Burning
	// Down: powered off (rack failure or being serviced).
	Down
)

// slot is the state of one midplane. Its deadlines, like every instant the
// scheduler keeps, are Unix nanoseconds with 0 for "never set": no simulated
// instant lies near 1970, so 0 orders before all of them exactly as the zero
// time.Time would, and the tick's many deadline comparisons are single
// integer compares instead of time.Time's two-word ones. Exported methods
// still take time.Time and convert once per call.
type slot struct {
	busyUntil     int64
	intensity     float64
	burner        bool
	jobID         int64
	reservedUntil int64
	downUntil     int64
}

// Config holds the tunable scheduler parameters. The zero value is replaced
// by defaults in New.
type Config struct {
	// Seed drives all stochastic decisions.
	Seed int64
	// BackfillBase is the per-attempt probability that a hole can be
	// backfilled at the start of production (default 0.30).
	BackfillBase float64
	// BackfillGrowthPerYear is the annual improvement of backfilling
	// (default 0.06), reflecting scheduler and policy refinements.
	BackfillGrowthPerYear float64
	// MaintenanceEvery is the Monday cadence of maintenance (default 2 =
	// every other Monday).
	MaintenanceEvery int
	// ServiceFraction is the fraction of midplanes powered off for service
	// during maintenance (default 0.25); the rest run burner jobs.
	ServiceFraction float64
	// ReservationMeanDays is the mean gap between project reservations that
	// hold midplanes idle (default 10).
	ReservationMeanDays float64
	// QueueLimit caps the backlog; beyond it, arriving jobs are rejected
	// (users throttle themselves on a saturated machine). Default 400.
	QueueLimit int
}

func (c Config) withDefaults() Config {
	if c.BackfillBase == 0 {
		c.BackfillBase = 0.30
	}
	if c.BackfillGrowthPerYear == 0 {
		c.BackfillGrowthPerYear = 0.06
	}
	if c.MaintenanceEvery == 0 {
		c.MaintenanceEvery = 2
	}
	if c.ServiceFraction == 0 {
		c.ServiceFraction = 0.25
	}
	if c.ReservationMeanDays == 0 {
		c.ReservationMeanDays = 10
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 400
	}
	return c
}

// Scheduler is the midplane-granular scheduler simulator.
type Scheduler struct {
	cfg   Config
	rng   *rand.Rand
	slots [topology.NumMidplanes]slot
	queue []workload.Job
	cal   timeutil.MaintenanceCalendar

	inMaintenance  bool
	maintenanceEnd int64

	// avoidUntil implements CMF-aware scheduling: placement treats a
	// flagged rack's midplanes as a last resort until the deadline passes.
	avoidUntil [topology.NumMidplanes]int64
	// popularity is the per-midplane placement weight (users habitually
	// target certain racks, creating the paper's utilization spread).
	popularity [topology.NumMidplanes]float64

	// What one Step derives from its now, once, for every placement attempt
	// of the tick. Each Step rebuilds all of it before reading any of it,
	// so FailRacks and Avoid between steps have nothing to invalidate.
	//
	// uniforms are the tick's visit-order draws, taken at the top of Step;
	// perm, the popularity-weighted visit order they define, is only built
	// (permReady) by the tick's first placement that gets past the free-slot
	// count. avail is slotAvailable at now for every slot, kept current as
	// tryPlace starts jobs; flagged is avoided at now.
	uniforms  [topology.NumMidplanes]float64
	perm      [topology.NumMidplanes]int
	permReady bool
	avail     slotSet
	flagged   slotSet

	// Counters.
	started   int64
	killed    int64
	rejected  int64
	completed int64

	// Per-queue accounting.
	queueStats [3]QueueStats
}

// QueueStats accumulates per-queue scheduling statistics.
type QueueStats struct {
	Started       int64
	WaitHoursSum  float64
	RunHoursSum   float64
	MidplaneHours float64
}

// MeanWaitHours returns the mean queue wait of started jobs.
func (q QueueStats) MeanWaitHours() float64 {
	if q.Started == 0 {
		return 0
	}
	return q.WaitHoursSum / float64(q.Started)
}

// MeanRunHours returns the mean requested walltime of started jobs.
func (q QueueStats) MeanRunHours() float64 {
	if q.Started == 0 {
		return 0
	}
	return q.RunHoursSum / float64(q.Started)
}

// New creates a scheduler.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		cal: timeutil.MaintenanceCalendar{Every: cfg.MaintenanceEvery},
	}
	for rack := 0; rack < topology.NumRacks; rack++ {
		w := math.Exp(s.rng.NormFloat64() * 0.65)
		if w < 0.35 {
			w = 0.35
		}
		if w > 2.2 {
			w = 2.2
		}
		for m := 0; m < topology.MidplanesPerRack; m++ {
			s.popularity[rack*topology.MidplanesPerRack+m] = w
		}
	}
	// Rack (0,A) was the single most-targeted rack on Mira (paper Fig. 6b).
	base := topology.BusyRack.Index() * topology.MidplanesPerRack
	s.popularity[base] = 3.4
	s.popularity[base+1] = 3.4
	return s
}

// Submit adds jobs to the queue, rejecting beyond the backlog limit.
func (s *Scheduler) Submit(jobs []workload.Job) {
	for _, j := range jobs {
		if len(s.queue) >= s.cfg.QueueLimit {
			s.rejected++
			continue
		}
		s.queue = append(s.queue, j)
	}
}

// Stats reports cumulative scheduler counters.
type Stats struct {
	Started, Killed, Rejected, Completed int64
}

// Stats returns the cumulative counters.
func (s *Scheduler) Stats() Stats {
	return Stats{Started: s.started, Killed: s.killed, Rejected: s.rejected, Completed: s.completed}
}

// Step advances the scheduler to time now: completes finished jobs, handles
// maintenance transitions, starts reservations, and dispatches queued jobs.
//
// Everything stochastic draws from the one s.rng, so the order of draws is
// part of the simulation: the visit order's uniforms first, then
// handleMaintenance, maybeReserve and dispatch's one draw per scanned job.
func (s *Scheduler) Step(now time.Time) {
	for i := range s.uniforms {
		s.uniforms[i] = s.rng.Float64()
	}
	s.permReady = false
	t := now.UnixNano()
	s.complete(t)
	s.handleMaintenance(now)
	s.maybeReserve(t)
	if !s.inMaintenance {
		s.dispatch(now)
	} else {
		s.refreshBurners(t)
	}
}

// visitOrder returns the tick's placement visit order: a popularity-weighted
// random permutation of the midplanes (Efraimidis-Spirakis sampling: sort by
// u^(1/w) descending), so user demand concentrates on some racks without any
// index-order artifact. It is built from the tick's uniforms on first use; a
// tick that places nothing never pays for the powers and the sort.
func (s *Scheduler) visitOrder() *[topology.NumMidplanes]int {
	if s.permReady {
		return &s.perm
	}
	type keyed struct {
		idx int
		key float64
	}
	var ks [topology.NumMidplanes]keyed
	for i := range ks {
		ks[i] = keyed{idx: i, key: math.Pow(s.uniforms[i], 1/s.popularity[i])}
	}
	slices.SortFunc(ks[:], func(a, b keyed) int { return cmp.Compare(b.key, a.key) })
	for i, k := range ks {
		s.perm[i] = k.idx
	}
	s.permReady = true
	return &s.perm
}

// complete frees slots whose jobs have finished.
func (s *Scheduler) complete(now int64) {
	// A job's midplanes finish together; count it once.
	var done [topology.NumMidplanes]int64
	n := 0
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.busyUntil == 0 || sl.busyUntil > now {
			continue
		}
		if !sl.burner && sl.jobID != 0 && !slices.Contains(done[:n], sl.jobID) {
			done[n] = sl.jobID
			n++
			s.completed++
		}
		sl.busyUntil = 0
		sl.jobID = 0
		sl.burner = false
		sl.intensity = 0
	}
}

// handleMaintenance enters and leaves Monday maintenance windows.
func (s *Scheduler) handleMaintenance(now time.Time) {
	inWindow := s.cal.InMaintenance(now)
	switch {
	case inWindow && !s.inMaintenance:
		s.inMaintenance = true
		// Find the window end by scanning forward at sample granularity.
		end := now
		for s.cal.InMaintenance(end) {
			end = end.Add(timeutil.SampleInterval)
		}
		s.maintenanceEnd = end.UnixNano()
		// Drain: kill all user jobs.
		t := now.UnixNano()
		for i := range s.slots {
			sl := &s.slots[i]
			if sl.busyUntil > t && !sl.burner {
				s.killSlot(i)
			}
		}
		// Power off a service subset; burners cover the rest.
		for i := range s.slots {
			if s.rng.Float64() < s.cfg.ServiceFraction {
				s.slots[i].downUntil = max(s.slots[i].downUntil, s.maintenanceEnd)
			}
		}
		s.refreshBurners(t)
	case !inWindow && s.inMaintenance:
		s.inMaintenance = false
		// Burners end with the window via busyUntil; nothing else to do.
	}
}

// refreshBurners starts burner jobs on every available midplane during
// maintenance, keeping otherwise-idle racks warm (the paper: cold inlet
// coolant can damage inactive CPUs).
func (s *Scheduler) refreshBurners(now int64) {
	for i := range s.slots {
		sl := &s.slots[i]
		if s.slotAvailable(sl, now) {
			sl.busyUntil = s.maintenanceEnd
			sl.burner = true
			sl.jobID = -1
			sl.intensity = workload.BurnerIntensity
		}
	}
}

// maybeReserve occasionally reserves a block of midplanes that a project
// then leaves (partially) unused — one of the paper's sources of transient
// utilization drops.
func (s *Scheduler) maybeReserve(now int64) {
	perTick := timeutil.SampleInterval.Hours() / (s.cfg.ReservationMeanDays * 24)
	if s.rng.Float64() >= perTick {
		return
	}
	count := 8 + s.rng.Intn(17) // 8–24 midplanes
	hold := time.Duration(6+s.rng.Intn(13)) * time.Hour
	until := now + int64(hold)
	reserved := 0
	for _, i := range s.rng.Perm(topology.NumMidplanes) {
		if reserved >= count {
			break
		}
		sl := &s.slots[i]
		if s.slotAvailable(sl, now) {
			sl.reservedUntil = until
			reserved++
		}
	}
}

// slotAvailable reports whether a midplane can accept work at now.
func (s *Scheduler) slotAvailable(sl *slot, now int64) bool {
	return sl.busyUntil <= now && sl.reservedUntil <= now && sl.downUntil <= now
}

// backfillProb returns the probability that a hole can be filled by an
// out-of-order job at time t; it improves over the production years.
func (s *Scheduler) backfillProb(t time.Time) float64 {
	years := t.Sub(timeutil.ProductionStart).Hours() / (365.25 * 24)
	p := s.cfg.BackfillBase + s.cfg.BackfillGrowthPerYear*years
	return math.Min(p, 0.98)
}

// dispatch places queued jobs with EASY backfilling: strict FIFO for the
// head job (a capability job at the head drains the machine behind a shadow
// reservation), and out-of-order starts for later jobs only when they finish
// before the head's projected start, so the head cannot starve.
func (s *Scheduler) dispatch(now time.Time) {
	t := now.UnixNano()
	s.avail, s.flagged = slotSet{}, slotSet{}
	for i := range s.slots {
		if s.slotAvailable(&s.slots[i], t) {
			s.avail.add(i)
		}
		if s.avoided(i, t) {
			s.flagged.add(i)
		}
	}
	placed := 0
	for placed < len(s.queue) && s.tryPlace(&s.queue[placed], t, slotSet{}) {
		placed++
	}
	// rest[0], if there is one, is the head job that did not fit.
	rest := s.queue[placed:]
	if len(rest) > 1 {
		// The head's shadow describes the slots as the head found them, and
		// nothing changes them before the first backfill start: it is taken
		// on the first attempt with enough free slots to succeed, and a tick
		// whose scanned jobs all outsize the free slots never sorts for it.
		var (
			shadow      int64
			shadowSlots slotSet
			shadowed    bool
		)
		// Backfill pass over a bounded scan window.
		p := s.backfillProb(now)
		scanEnd := min(len(rest), 1+150)
		kept := 1
		for i := 1; i < scanEnd; i++ {
			j := &rest[i]
			// The draw comes first, whether or not the job can fit.
			if s.rng.Float64() < p && s.avail.count() >= j.Midplanes {
				if !shadowed {
					shadow, shadowSlots = s.shadow(&rest[0], t)
					shadowed = true
				}
				// EASY rule: a backfilled job must not delay the head. Jobs
				// ending before the head's projected start may use any slot;
				// longer jobs must avoid the slots the head is waiting on.
				var banned slotSet
				if t+int64(j.Walltime) >= shadow {
					banned = shadowSlots
				}
				if s.tryPlace(j, t, banned) {
					continue
				}
			}
			// Keep scanning: later, smaller jobs may still fit this tick.
			rest[kept] = *j
			kept++
		}
		kept += copy(rest[kept:], rest[scanEnd:])
		rest = rest[:kept]
	}
	// The queue stays at the front of its array, so Submit's appends reuse
	// the room the started jobs left.
	s.queue = s.queue[:copy(s.queue, rest)]
}

// freeSlot is when one midplane next becomes free.
type freeSlot struct {
	idx  int
	free int64
}

// shadow estimates when the head job will be able to start — the moment its
// Midplanes-th slot becomes free, assuming no further arrivals — and which
// slots it is waiting on (the earliest-free ones). All queues may ultimately
// use any midplane (prod-long merely prefers row 0).
//
// Ties are the common case (every idle slot is free now, every slot of one
// job frees together) and which tied slots sort into the first j.Midplanes
// decides the banned set, so the sort's tie order is part of the
// simulation: slices.SortFunc over the slots in index order with this
// comparison, nothing stable, partial or differently keyed.
func (s *Scheduler) shadow(j *workload.Job, now int64) (int64, slotSet) {
	if topology.NumMidplanes < j.Midplanes {
		// The job can never run; let backfill proceed unrestricted.
		return now + int64(365*24*time.Hour), slotSet{}
	}
	var frees [topology.NumMidplanes]freeSlot
	for i := range s.slots {
		sl := &s.slots[i]
		frees[i] = freeSlot{idx: i, free: max(sl.downUntil, sl.reservedUntil, sl.busyUntil, now)}
	}
	slices.SortFunc(frees[:], func(a, b freeSlot) int { return cmp.Compare(a.free, b.free) })
	var waiting slotSet
	for _, f := range frees[:j.Midplanes] {
		waiting.add(f.idx)
	}
	return frees[j.Midplanes-1].free, waiting
}

// tryPlace attempts to start the job now, honoring queue placement policy
// and avoiding banned slots (the head job's shadow reservation). It returns
// true when the job was started.
func (s *Scheduler) tryPlace(j *workload.Job, now int64, banned slotSet) bool {
	open := s.avail.minus(banned)
	if open.count() < j.Midplanes {
		return false
	}
	// CMF-aware scheduling: demote flagged midplanes to a last resort.
	var buf [topology.NumMidplanes]int
	picked := s.pick(buf[:0], j, open.minus(s.flagged), j.Midplanes)
	if len(picked) < j.Midplanes {
		picked = s.pick(picked, j, open.and(s.flagged), j.Midplanes)
	}
	end := now + int64(j.Walltime)
	for _, i := range picked {
		sl := &s.slots[i]
		sl.busyUntil = end
		sl.burner = false
		sl.jobID = j.ID
		sl.intensity = j.Intensity
		// A job that ends by now leaves its slots available.
		if end > now {
			s.avail.remove(i)
		}
	}
	s.started++
	q := &s.queueStats[int(j.Queue)]
	q.Started++
	if !j.Submitted.IsZero() {
		if sub := j.Submitted.UnixNano(); now > sub {
			q.WaitHoursSum += time.Duration(now - sub).Hours()
		}
	}
	q.RunHoursSum += j.Walltime.Hours()
	q.MidplaneHours += float64(j.Midplanes) * j.Walltime.Hours()
	return true
}

// QueueStatsFor returns the accumulated statistics of one queue.
func (s *Scheduler) QueueStatsFor(q workload.Queue) QueueStats {
	return s.queueStats[int(q)]
}

// pick appends slots of from to dst, until dst holds n, in the job's
// placement preference order. Within each preference group the tick's
// shuffled visit order applies, so no rack is systematically favored by
// index.
func (s *Scheduler) pick(dst []int, j *workload.Job, from slotSet, n int) []int {
	var groups [3]slotSet
	switch {
	case j.Queue == workload.ProdLong:
		// prod-long jobs are allocated racks from row 0 (paper §IV-A),
		// spilling onto other rows only when row 0 is full.
		groups = [3]slotSet{from.and(row0Slots), from.minus(row0Slots)}
	case j.AffinityCol >= 0:
		// Rack-affine users: the row-0 rack of their column first (the
		// habitual target), then the rest of the column, then anywhere.
		var col slotSet
		if j.AffinityCol < topology.ColsPerRow {
			col = colSlots[j.AffinityCol]
		}
		inCol := from.and(col)
		groups = [3]slotSet{inCol.and(row0Slots), inCol.minus(row0Slots), from.minus(col)}
	default:
		// Ordinary jobs place anywhere, visiting racks in the tick's
		// popularity-weighted order.
		groups = [3]slotSet{from}
	}
	order := s.visitOrder()
	for _, g := range groups {
		if g.count() == 0 {
			continue
		}
		for _, idx := range order {
			if len(dst) == n {
				return dst
			}
			if g.has(idx) {
				dst = append(dst, idx)
			}
		}
	}
	return dst
}

// slotSet is a set of midplane indices; the machine's 96 fit two words.
type slotSet [(topology.NumMidplanes + 63) / 64]uint64

func (b *slotSet) add(i int)    { b[i>>6] |= 1 << (i & 63) }
func (b *slotSet) remove(i int) { b[i>>6] &^= 1 << (i & 63) }

func (b slotSet) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

func (b slotSet) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func (b slotSet) and(o slotSet) slotSet {
	for i := range b {
		b[i] &= o[i]
	}
	return b
}

func (b slotSet) minus(o slotSet) slotSet {
	for i := range b {
		b[i] &^= o[i]
	}
	return b
}

// row0Slots and colSlots are the midplanes of row 0 and of each rack column.
var row0Slots, colSlots = func() (row0 slotSet, cols [topology.ColsPerRow]slotSet) {
	for i := 0; i < topology.NumMidplanes; i++ {
		r := topology.RackByIndex(i / topology.MidplanesPerRack)
		if r.Row == 0 {
			row0.add(i)
		}
		cols[r.Col].add(i)
	}
	return row0, cols
}()

// killSlot terminates the job on slot i, killing all slots of that job.
func (s *Scheduler) killSlot(i int) {
	jobID := s.slots[i].jobID
	if jobID == 0 {
		return
	}
	for k := range s.slots {
		sl := &s.slots[k]
		if sl.jobID == jobID {
			sl.busyUntil = 0
			sl.jobID = 0
			sl.burner = false
			sl.intensity = 0
		}
	}
	s.killed++
}

// Avoid flags a rack for CMF-aware scheduling until the given time: no new
// jobs are placed on it while any alternative capacity exists, letting its
// running jobs drain ahead of a predicted coolant monitor failure (the
// paper's closing opportunity: "develop CMF-aware job schedulers").
func (s *Scheduler) Avoid(r topology.RackID, until time.Time) {
	base, u := r.Index()*topology.MidplanesPerRack, until.UnixNano()
	for m := 0; m < topology.MidplanesPerRack; m++ {
		s.avoidUntil[base+m] = max(s.avoidUntil[base+m], u)
	}
}

// avoided reports whether the midplane is flagged at now.
func (s *Scheduler) avoided(idx int, now int64) bool {
	return s.avoidUntil[idx] > now
}

// FailRacks takes the given racks down until the given time, killing every
// job with presence on them (coolant monitor failures kill whole racks and,
// through multi-rack jobs, many more jobs). It returns the number of jobs
// killed.
func (s *Scheduler) FailRacks(racks []topology.RackID, until time.Time) int {
	before, u := s.killed, until.UnixNano()
	for _, r := range racks {
		base := r.Index() * topology.MidplanesPerRack
		for m := 0; m < topology.MidplanesPerRack; m++ {
			i := base + m
			if s.slots[i].jobID != 0 && !s.slots[i].burner {
				s.killSlot(i)
			}
			s.slots[i].busyUntil = 0
			s.slots[i].burner = false
			s.slots[i].jobID = 0
			s.slots[i].intensity = 0
			s.slots[i].downUntil = max(s.slots[i].downUntil, u)
		}
	}
	return int(s.killed - before)
}

// RackDown reports whether the rack is powered off at now.
func (s *Scheduler) RackDown(r topology.RackID, now time.Time) bool {
	base, t := r.Index()*topology.MidplanesPerRack, now.UnixNano()
	// A rack is down when all its midplanes are down (failures take whole
	// racks; maintenance service takes individual midplanes).
	for m := 0; m < topology.MidplanesPerRack; m++ {
		if s.slots[base+m].downUntil <= t {
			return false
		}
	}
	return true
}

// MidplaneSnapshot describes one midplane for the power and cooling models.
type MidplaneSnapshot struct {
	State     MidplaneState
	Intensity float64
}

// Snapshot returns the state of every midplane at now, indexed by midplane
// number (rack.Index()*2 + m).
func (s *Scheduler) Snapshot(now time.Time) (out [topology.NumMidplanes]MidplaneSnapshot) {
	t := now.UnixNano()
	for i := range s.slots {
		sl := &s.slots[i]
		switch {
		case sl.downUntil > t:
			out[i] = MidplaneSnapshot{State: Down}
		case sl.busyUntil > t && sl.burner:
			out[i] = MidplaneSnapshot{State: Burning, Intensity: sl.intensity}
		case sl.busyUntil > t:
			out[i] = MidplaneSnapshot{State: Busy, Intensity: sl.intensity}
		default:
			out[i] = MidplaneSnapshot{State: Idle}
		}
	}
	return out
}

// SystemUtilization returns the fraction of nodes running jobs at now.
// Burner jobs count as utilization (they are jobs occupying nodes), matching
// the paper's definition of "percentage of nodes on which jobs are running";
// serviced/down midplanes do not.
func (s *Scheduler) SystemUtilization(now time.Time) float64 {
	busy, t := 0, now.UnixNano()
	for i := range s.slots {
		if s.slots[i].busyUntil > t && s.slots[i].downUntil <= t {
			busy++
		}
	}
	return float64(busy) / float64(topology.NumMidplanes)
}

// RackUtilization returns the fraction of the rack's nodes running jobs.
func (s *Scheduler) RackUtilization(r topology.RackID, now time.Time) float64 {
	base, busy, t := r.Index()*topology.MidplanesPerRack, 0, now.UnixNano()
	for m := 0; m < topology.MidplanesPerRack; m++ {
		sl := &s.slots[base+m]
		if sl.busyUntil > t && sl.downUntil <= t {
			busy++
		}
	}
	return float64(busy) / float64(topology.MidplanesPerRack)
}
