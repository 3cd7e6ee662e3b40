// Package series provides time-series containers and the streaming
// aggregators the analyses are built on: grouping samples by calendar year,
// month, or day of week, and accumulating per-rack means without
// materializing the full six-year, 300-second-granularity trace in memory.
package series

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mira/internal/stats"
	"mira/internal/timeutil"
)

// Point is one timestamped observation.
type Point struct {
	T time.Time
	V float64
}

// Series is an ordered sequence of timestamped observations.
type Series struct {
	Name   string
	Points []Point
}

// newSeries creates an empty named series.
func newSeries(name string) *Series { return &Series{Name: name} }

// Append adds a point; callers are expected to append in time order.
func (s *Series) Append(t time.Time, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// Values returns the observation values in order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// slice returns the sub-series with timestamps in [from, to).
func (s *Series) slice(from, to time.Time) *Series {
	out := newSeries(s.Name)
	for _, p := range s.Points {
		if !p.T.Before(from) && p.T.Before(to) {
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// summary returns descriptive statistics of the series values.
func (s *Series) summary() stats.Summary { return stats.Summarize(s.Values()) }

// ---------------------------------------------------------------------------
// Streaming aggregators
// ---------------------------------------------------------------------------

// MeanAcc is a streaming mean accumulator.
type MeanAcc struct {
	Sum float64
	N   int
}

// Add records one observation.
func (a *MeanAcc) Add(v float64) {
	a.Sum += v
	a.N++
}

// Mean returns the accumulated mean; NaN if no observations were recorded.
func (a *MeanAcc) Mean() float64 {
	if a.N == 0 {
		return math.NaN()
	}
	return a.Sum / float64(a.N)
}

// RunningMean is a streaming mean in Welford's form, mean += (v−mean)/n:
// the recurrence VarAcc's mean follows, so the two agree bit for bit.
type RunningMean struct {
	n    int
	mean float64
}

// Add records one observation.
func (a *RunningMean) Add(v float64) {
	a.n++
	a.mean += (v - a.mean) / float64(a.n)
}

// VarAcc is a streaming mean/variance accumulator (Welford's algorithm),
// used for the paper's "overall standard deviation" figures (41 GPM, 0.61°F,
// 0.71°F, 2.48°F, 3.66 RH) without storing the raw samples.
type VarAcc struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (a *VarAcc) Add(v float64) {
	a.n++
	d := v - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (v - a.mean)
}

// N returns the number of observations.
func (a *VarAcc) N() int { return a.n }

// Mean returns the running mean; NaN if empty.
func (a *VarAcc) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// StdDev returns the running population standard deviation; NaN if empty.
func (a *VarAcc) StdDev() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return math.Sqrt(a.m2 / float64(a.n))
}

// GroupBy identifies a calendar grouping for streaming profiles.
type GroupBy int

const (
	// ByYear groups by calendar year (keys 2014..2019).
	ByYear GroupBy = iota
	// ByMonth groups by month of year (keys 1..12), pooling years — the
	// paper's Fig. 4 monthly profiles.
	ByMonth
	// ByWeekday groups by day of week (keys 0=Sunday..6=Saturday) — the
	// paper's Fig. 5 daily profiles.
	ByWeekday
	// ByHour groups by hour of day (keys 0..23).
	ByHour
	// ByYearMonth groups by absolute month (key year*100+month), for
	// timeline plots like Figs. 2, 3 and 8.
	ByYearMonth
)

// keyOf maps a timestamp to its group key.
func (g GroupBy) keyOf(t time.Time) int {
	t = t.In(timeutil.Chicago)
	switch g {
	case ByYear:
		return t.Year()
	case ByMonth:
		return int(t.Month())
	case ByWeekday:
		return int(t.Weekday())
	case ByHour:
		return t.Hour()
	case ByYearMonth:
		return t.Year()*100 + int(t.Month())
	default:
		panic(fmt.Sprintf("series: unknown GroupBy %d", int(g)))
	}
}

// meanGroups is the per-group running means both profile kinds keep.
type meanGroups struct {
	Group  GroupBy
	groups map[int]*RunningMean
}

// group returns key k's accumulator, creating it on first sight.
func (p *meanGroups) group(k int) *RunningMean {
	acc, ok := p.groups[k]
	if !ok {
		acc = new(RunningMean)
		p.groups[k] = acc
	}
	return acc
}

// Keys returns the group keys in ascending order.
func (p *meanGroups) Keys() []int {
	keys := make([]int, 0, len(p.groups))
	for k := range p.groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Mean returns the mean for key k; NaN if the key was never observed.
func (p *meanGroups) Mean(k int) float64 {
	if acc, ok := p.groups[k]; ok {
		return acc.mean
	}
	return math.NaN()
}

// N returns the observation count for key k.
func (p *meanGroups) N(k int) int {
	if acc, ok := p.groups[k]; ok {
		return acc.n
	}
	return 0
}

// Means returns the keys and their means as parallel slices.
func (p *meanGroups) Means() (keys []int, means []float64) {
	keys = p.Keys()
	means = make([]float64, len(keys))
	for i, k := range keys {
		means[i] = p.Mean(k)
	}
	return keys, means
}

// Profile accumulates a calendar-grouped profile of a metric: a running
// mean per group key and nothing else, so it has no median to ask for.
// MedianProfile is the kind that keeps a sample.
type Profile struct{ meanGroups }

// NewProfile creates a profile with the given grouping.
func NewProfile(g GroupBy) *Profile {
	return &Profile{meanGroups{Group: g, groups: make(map[int]*RunningMean)}}
}

// At returns the accumulator of t's group, creating it on first sight.
// Telemetry arrives a tick at a time — one instant, one observation per
// rack — so a caller resolves the group once per instant and adds to it
// directly, skipping the calendar conversion and the map for the rest.
func (p *Profile) At(t time.Time) *RunningMean { return p.group(p.Group.keyOf(t)) }

// Add records one observation at time t.
func (p *Profile) Add(t time.Time, v float64) { p.At(t).Add(v) }

// MedianProfile is a Profile that also keeps, per group, a bounded
// reservoir for median estimation. The reservoir costs a PRNG step per
// observation once full and 32 KiB per group, so only profiles whose
// medians a figure reads are built this way.
type MedianProfile struct {
	meanGroups
	res map[int]*Reservoir
}

// NewMedianProfile creates a median-keeping profile with the given
// grouping.
func NewMedianProfile(g GroupBy) *MedianProfile {
	return &MedianProfile{
		meanGroups: meanGroups{Group: g, groups: make(map[int]*RunningMean)},
		res:        make(map[int]*Reservoir),
	}
}

// Add records one observation at time t.
func (p *MedianProfile) Add(t time.Time, v float64) {
	k := p.Group.keyOf(t)
	p.group(k).Add(v)
	r, ok := p.res[k]
	if !ok {
		r = NewReservoir(4096, int64(k)*7919+1)
		p.res[k] = r
	}
	r.Add(v)
}

// Median returns the (reservoir-estimated) median for key k; NaN if absent.
func (p *MedianProfile) Median(k int) float64 {
	if r, ok := p.res[k]; ok {
		return stats.Median(r.Values())
	}
	return math.NaN()
}

// Medians returns the keys and their medians as parallel slices.
func (p *MedianProfile) Medians() (keys []int, medians []float64) {
	keys = p.Keys()
	medians = make([]float64, len(keys))
	for i, k := range keys {
		medians[i] = p.Median(k)
	}
	return keys, medians
}

// Reservoir is a fixed-size uniform random sample of a stream (Vitter's
// algorithm R), used to estimate medians over multi-year streams in bounded
// memory.
type Reservoir struct {
	cap   int
	seen  int64
	vals  []float64
	state uint64
}

// NewReservoir creates a reservoir holding at most capacity values. The seed
// makes sampling deterministic.
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity <= 0 {
		panic(fmt.Sprintf("series: reservoir capacity must be positive, got %d", capacity))
	}
	return &Reservoir{cap: capacity, state: uint64(seed)*2654435761 + 1}
}

// next is a small xorshift PRNG; the reservoir does not need crypto-quality
// randomness, just cheap uniformity that is independent of math/rand's
// global state.
func (r *Reservoir) next() uint64 {
	x := r.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.state = x
	return x
}

// Add offers one value to the reservoir.
func (r *Reservoir) Add(v float64) {
	r.seen++
	if len(r.vals) < r.cap {
		r.vals = append(r.vals, v)
		return
	}
	j := int64(r.next() % uint64(r.seen))
	if j < int64(r.cap) {
		r.vals[j] = v
	}
}

// Values returns the current sample (not a copy in time order).
func (r *Reservoir) Values() []float64 { return r.vals }
