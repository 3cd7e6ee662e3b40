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

// New creates an empty named series.
func New(name string) *Series { return &Series{Name: name} }

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

// Slice returns the sub-series with timestamps in [from, to).
func (s *Series) Slice(from, to time.Time) *Series {
	out := New(s.Name)
	for _, p := range s.Points {
		if !p.T.Before(from) && p.T.Before(to) {
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// Resample reduces the series to one point per bucket of the given width,
// each holding the mean of the bucket, anchored at the first point's bucket.
func (s *Series) Resample(width time.Duration) *Series {
	out := New(s.Name)
	if len(s.Points) == 0 || width <= 0 {
		return out
	}
	anchor := s.Points[0].T
	var (
		bucket int64 = 0
		sum    float64
		n      int
	)
	flush := func(b int64) {
		if n > 0 {
			out.Append(anchor.Add(time.Duration(b)*width), sum/float64(n))
		}
		sum, n = 0, 0
	}
	for _, p := range s.Points {
		b := int64(p.T.Sub(anchor) / width)
		if b != bucket {
			flush(bucket)
			bucket = b
		}
		sum += p.V
		n++
	}
	flush(bucket)
	return out
}

// Summary returns descriptive statistics of the series values.
func (s *Series) Summary() stats.Summary { return stats.Summarize(s.Values()) }

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

// VarAcc is a streaming mean/variance accumulator (Welford's algorithm),
// used for the paper's "overall standard deviation" figures (41 GPM, 0.61°F,
// 0.71°F, 2.48°F, 3.66 RH) without storing the raw samples.
type VarAcc struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (a *VarAcc) Add(v float64) {
	if a.n == 0 {
		a.min, a.max = v, v
	} else {
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	}
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

// Min returns the smallest observation; NaN if empty.
func (a *VarAcc) Min() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.min
}

// Max returns the largest observation; NaN if empty.
func (a *VarAcc) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
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

// Profile accumulates a calendar-grouped profile of a metric: for each group
// key it tracks a streaming mean and extrema, plus a bounded reservoir for
// median estimation.
type Profile struct {
	Group  GroupBy
	groups map[int]*groupAcc

	// last is the group the instant lastNano resolved to. Telemetry arrives
	// a tick at a time — one instant, one observation per rack — so all but
	// the first Add of a tick skip the calendar conversion and the map. The
	// memo is keyed on unix nanoseconds, not on time.Time ==, which also
	// compares location: the same instant in UTC and in Chicago is one key.
	last     *groupAcc
	lastNano int64
}

type groupAcc struct {
	v VarAcc
	r *Reservoir
}

// NewProfile creates a profile with the given grouping.
func NewProfile(g GroupBy) *Profile {
	return &Profile{Group: g, groups: make(map[int]*groupAcc)}
}

// Add records one observation at time t.
func (p *Profile) Add(t time.Time, v float64) {
	acc := p.last
	if n := t.UnixNano(); acc == nil || n != p.lastNano {
		acc = p.group(p.Group.keyOf(t))
		p.last, p.lastNano = acc, n
	}
	acc.v.Add(v)
	acc.r.Add(v)
}

// group returns key k's accumulator, creating it on first sight.
func (p *Profile) group(k int) *groupAcc {
	acc, ok := p.groups[k]
	if !ok {
		acc = &groupAcc{r: NewReservoir(4096, int64(k)*7919+1)}
		p.groups[k] = acc
	}
	return acc
}

// Keys returns the group keys in ascending order.
func (p *Profile) Keys() []int {
	keys := make([]int, 0, len(p.groups))
	for k := range p.groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Mean returns the mean for key k; NaN if the key was never observed.
func (p *Profile) Mean(k int) float64 {
	if acc, ok := p.groups[k]; ok {
		return acc.v.Mean()
	}
	return math.NaN()
}

// Median returns the (reservoir-estimated) median for key k; NaN if absent.
func (p *Profile) Median(k int) float64 {
	if acc, ok := p.groups[k]; ok {
		return stats.Median(acc.r.Values())
	}
	return math.NaN()
}

// N returns the observation count for key k.
func (p *Profile) N(k int) int {
	if acc, ok := p.groups[k]; ok {
		return acc.v.N()
	}
	return 0
}

// Means returns the keys and their means as parallel slices.
func (p *Profile) Means() (keys []int, means []float64) {
	keys = p.Keys()
	means = make([]float64, len(keys))
	for i, k := range keys {
		means[i] = p.Mean(k)
	}
	return keys, means
}

// Medians returns the keys and their medians as parallel slices.
func (p *Profile) Medians() (keys []int, medians []float64) {
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

// Seen returns how many values have been offered.
func (r *Reservoir) Seen() int64 { return r.seen }
