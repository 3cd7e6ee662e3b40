// Package workload generates the job stream offered to the Mira scheduler:
// INCITE, ALCC, and discretionary projects with deadline-driven submission
// pressure near their allocation-year ends, midplane-granular job sizes,
// walltime distributions, per-job CPU intensity, and the user rack-affinity
// hotspots the paper observed on columns 2, 6, A, and B.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mira/internal/timeutil"
	"mira/internal/topology"
)

// Queue identifies a scheduler queue.
type Queue int

const (
	// ProdShort is the default production queue.
	ProdShort Queue = iota
	// ProdLong is the long-walltime queue whose jobs are placed on row 0
	// (paper §IV-A).
	ProdLong
	// ProdCapability is the queue for full- or near-full-machine runs that
	// force the scheduler to drain.
	ProdCapability
)

func (q Queue) String() string {
	switch q {
	case ProdLong:
		return "prod-long"
	case ProdCapability:
		return "prod-capability"
	default:
		return "prod-short"
	}
}

// Job is one schedulable unit of work. Sizes are expressed in midplanes
// (512 nodes each), the Blue Gene/Q allocation granularity.
type Job struct {
	ID        int64
	Program   timeutil.Program
	Queue     Queue
	Midplanes int
	Walltime  time.Duration
	// Intensity is the job's CPU-intensity factor relative to a nominal
	// workload (≈0.6–1.4). Power draw scales with it; utilization does not,
	// which is what decorrelates the two metrics (paper: correlation 0.45).
	Intensity float64
	// AffinityCol, when >= 0, is the rack column the submitting user
	// habitually targets.
	AffinityCol int
	// Submitted is the submission time.
	Submitted time.Time
}

// String renders a compact description for logs.
func (j Job) String() string {
	return fmt.Sprintf("job %d [%s/%s] %dmp %s int=%.2f", j.ID, j.Program, j.Queue, j.Midplanes, j.Walltime, j.Intensity)
}

// Generator produces the stochastic job stream. It is deterministic for a
// given seed.
type Generator struct {
	rng    *rand.Rand
	nextID int64

	// BaseLoad is the offered load (fraction of machine capacity) at the
	// start of production, before deadline effects (default 0.82).
	BaseLoad float64
	// LoadGrowthPerYear is the linear growth of offered load per year
	// (default 0.024), reflecting the demand growth that raised Mira's
	// utilization from ≈80% to ≈93%.
	LoadGrowthPerYear float64
	// DeadlinePressure scales how strongly submissions concentrate near
	// allocation-year ends (default 0.35).
	DeadlinePressure float64
	// AffinityFraction is the fraction of prod-short jobs submitted by
	// rack-affine users (default 0.18).
	AffinityFraction float64
}

// AffinityColumns are the rack columns the paper identifies as utilization
// hotspots created by users repeatedly targeting specific regions:
// columns 2, 6, A, and B.
var AffinityColumns = []int{0x2, 0x6, 0xA, 0xB}

// NewGenerator creates a job generator with the given seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{
		rng:               rand.New(rand.NewSource(seed)),
		BaseLoad:          0.82,
		LoadGrowthPerYear: 0.024,
		DeadlinePressure:  0.35,
		AffinityFraction:  0.18,
	}
}

// OfferedLoad returns the instantaneous offered load (fraction of machine
// capacity demanded) at time t. It combines the multi-year demand growth
// with INCITE and ALCC allocation-year deadline pressure. INCITE (the
// larger, higher-priority program) dominates, which raises load in the
// second half of each calendar year (paper Fig. 4).
func (g *Generator) OfferedLoad(t time.Time) float64 {
	years := t.Sub(timeutil.ProductionStart).Hours() / (365.25 * 24)
	base := g.BaseLoad + g.LoadGrowthPerYear*years

	// Deadline pressure ramps as each program's allocation year runs out.
	// Program weights: INCITE 60%, ALCC 30%, discretionary 10% of demand.
	fi := timeutil.AllocationYearFraction(timeutil.INCITE, t)
	fa := timeutil.AllocationYearFraction(timeutil.ALCC, t)
	pressure := 0.60*math.Pow(fi, 3) + 0.30*math.Pow(fa, 3)
	// Center the pressure term so it redistributes load across the year
	// rather than only adding to it (E[f³] = 1/4 for uniform f).
	centered := pressure - 0.225

	load := base + g.DeadlinePressure*centered
	if load < 0.3 {
		load = 0.3
	}
	return load
}

// meanJobMidplaneHours is the expected midplane-hours of one generated job,
// used to convert offered load into an arrival rate. Kept in sync with the
// sampling distributions below by TestMeanJobMidplaneHours.
const meanJobMidplaneHours = 20.6

// Arrivals returns the jobs submitted during (t, t+dt]. The arrival process
// is Poisson with a rate matched to OfferedLoad.
func (g *Generator) Arrivals(t time.Time, dt time.Duration) []Job {
	load := g.OfferedLoad(t)
	// capacity is 96 midplane-hours per hour.
	jobsPerHour := load * float64(topology.NumMidplanes) / meanJobMidplaneHours
	expected := jobsPerHour * dt.Hours()
	n := g.poisson(expected)
	jobs := make([]Job, 0, n)
	for i := 0; i < n; i++ {
		jobs = append(jobs, g.sample(t))
	}
	return jobs
}

// sample draws one job.
func (g *Generator) sample(t time.Time) Job {
	g.nextID++
	j := Job{ID: g.nextID, Submitted: t, AffinityCol: -1}

	// Program mix: INCITE 60%, ALCC 30%, discretionary 10% — weighted
	// additionally by each program's own deadline proximity so the
	// program composition shifts over the year.
	fi := timeutil.AllocationYearFraction(timeutil.INCITE, t)
	fa := timeutil.AllocationYearFraction(timeutil.ALCC, t)
	wi := 0.60 * (0.4 + 1.6*fi*fi)
	wa := 0.30 * (0.4 + 1.6*fa*fa)
	wd := 0.10
	u := g.rng.Float64() * (wi + wa + wd)
	switch {
	case u < wi:
		j.Program = timeutil.INCITE
	case u < wi+wa:
		j.Program = timeutil.ALCC
	default:
		j.Program = timeutil.Discretionary
	}

	// Queue mix: 15% prod-long (preferring row 0), ~1% occasional
	// capability runs, rest prod-short.
	switch q := g.rng.Float64(); {
	case q < 0.15:
		j.Queue = ProdLong
	case q < 0.16:
		j.Queue = ProdCapability
	default:
		j.Queue = ProdShort
	}

	j.Midplanes = g.sampleSize(j.Queue)
	j.Walltime = g.sampleWalltime(j.Queue)
	j.Intensity = g.sampleIntensity()
	if j.Queue == ProdLong {
		// Long production jobs "usually do not underutilize the allocated
		// nodes" (paper §IV-A): they run hotter on average.
		j.Intensity *= 1.06
		if j.Intensity > 1.45 {
			j.Intensity = 1.45
		}
	}

	if j.Queue == ProdShort && g.rng.Float64() < g.AffinityFraction {
		// Column A's users were the heaviest rack-targeters (the paper's
		// highest-utilization rack is (0,A)).
		switch u := g.rng.Float64(); {
		case u < 0.40:
			j.AffinityCol = 0xA
		case u < 0.62:
			j.AffinityCol = 0xB
		case u < 0.82:
			j.AffinityCol = 0x2
		default:
			j.AffinityCol = 0x6
		}
	}
	return j
}

// sampleSize draws a job size in midplanes. INCITE capability jobs can span
// the machine; typical jobs are 1–8 midplanes (512–4,096 nodes).
func (g *Generator) sampleSize(q Queue) int {
	if q == ProdCapability {
		// Half-machine or larger runs.
		sizes := []int{32, 48, 64, 96}
		return sizes[g.rng.Intn(len(sizes))]
	}
	// Geometric-ish preference for small power-of-two sizes.
	sizes := []int{1, 2, 4, 8, 16}
	weights := []float64{0.34, 0.30, 0.20, 0.11, 0.05}
	u := g.rng.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return sizes[i]
		}
	}
	return sizes[len(sizes)-1]
}

// sampleWalltime draws a runtime. prod-long jobs run 6–24 h, others 0.5–8 h.
func (g *Generator) sampleWalltime(q Queue) time.Duration {
	var hours float64
	switch q {
	case ProdLong:
		hours = 6 + 18*g.rng.Float64()
	case ProdCapability:
		hours = 2 + 6*g.rng.Float64()
	default:
		hours = 0.5 + 7.5*math.Pow(g.rng.Float64(), 1.6)
	}
	return time.Duration(hours * float64(time.Hour))
}

// sampleIntensity draws the CPU-intensity factor: lognormal-ish around 1,
// clipped to [0.6, 1.4].
func (g *Generator) sampleIntensity() float64 {
	v := math.Exp(g.rng.NormFloat64() * 0.13)
	if v < 0.6 {
		v = 0.6
	}
	if v > 1.4 {
		v = 1.4
	}
	return v
}

// poisson draws from a Poisson distribution with the given mean, using the
// normal approximation for large means.
func (g *Generator) poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(mean + math.Sqrt(mean)*g.rng.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// BurnerIntensity is the CPU-intensity of the burner jobs run during
// maintenance to keep idle racks warm. They perform no useful computation
// and draw noticeably less power than production jobs, which is why Mira's
// Monday power dips ≈6% while utilization dips only ≈1.5% (paper Fig. 5).
const BurnerIntensity = 0.55
