package workload

import (
	"math"
	"testing"
	"time"

	"mira/internal/timeutil"
)

func TestOfferedLoadGrowth(t *testing.T) {
	g := NewGenerator(1)
	early := g.OfferedLoad(time.Date(2014, 4, 15, 0, 0, 0, 0, timeutil.Chicago))
	late := g.OfferedLoad(time.Date(2019, 4, 15, 0, 0, 0, 0, timeutil.Chicago))
	if late <= early {
		t.Errorf("offered load should grow over years: %v -> %v", early, late)
	}
	if late-early < 0.08 || late-early > 0.2 {
		t.Errorf("five-year growth = %v, want ≈0.11", late-early)
	}
}

func TestOfferedLoadSeasonal(t *testing.T) {
	g := NewGenerator(1)
	// INCITE deadline pressure: December load above May load, same year.
	may := g.OfferedLoad(time.Date(2016, 5, 10, 0, 0, 0, 0, timeutil.Chicago))
	dec := g.OfferedLoad(time.Date(2016, 12, 10, 0, 0, 0, 0, timeutil.Chicago))
	if dec <= may {
		t.Errorf("December load (%v) should exceed May load (%v)", dec, may)
	}
}

func TestOfferedLoadBounded(t *testing.T) {
	g := NewGenerator(1)
	for ts := timeutil.ProductionStart; ts.Before(timeutil.ProductionEnd); ts = ts.Add(91 * time.Hour) {
		l := g.OfferedLoad(ts)
		if l < 0.3 || l > 1.3 {
			t.Fatalf("offered load out of range at %v: %v", ts, l)
		}
	}
}

func TestArrivalsRateMatchesLoad(t *testing.T) {
	g := NewGenerator(2)
	ts := time.Date(2016, 3, 1, 0, 0, 0, 0, timeutil.Chicago)
	var mpHours float64
	days := 30
	for i := 0; i < days*24; i++ {
		for _, j := range g.Arrivals(ts, time.Hour) {
			mpHours += float64(j.Midplanes) * j.Walltime.Hours()
		}
		ts = ts.Add(time.Hour)
	}
	// Offered demand should be ≈ load × capacity.
	wantLoad := g.OfferedLoad(ts)
	gotLoad := mpHours / (float64(days) * 24 * 96)
	if math.Abs(gotLoad-wantLoad) > 0.12 {
		t.Errorf("offered demand = %v of capacity, want ≈%v", gotLoad, wantLoad)
	}
}

func TestMeanJobMidplaneHours(t *testing.T) {
	// The constant used to convert load to arrival rate must track the
	// sampling distributions.
	g := NewGenerator(3)
	ts := time.Date(2015, 6, 1, 0, 0, 0, 0, timeutil.Chicago)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		j := g.sample(ts)
		sum += float64(j.Midplanes) * j.Walltime.Hours()
	}
	got := sum / float64(n)
	if math.Abs(got-meanJobMidplaneHours) > 1.5 {
		t.Errorf("empirical mean midplane-hours = %v, constant = %v; update the constant", got, meanJobMidplaneHours)
	}
}

func TestSampleDistributions(t *testing.T) {
	g := NewGenerator(4)
	ts := time.Date(2015, 6, 1, 0, 0, 0, 0, timeutil.Chicago)
	counts := map[Queue]int{}
	affinity := 0
	n := 10000
	for i := 0; i < n; i++ {
		j := g.sample(ts)
		counts[j.Queue]++
		if j.Midplanes < 1 || j.Midplanes > 96 {
			t.Fatalf("bad size %d", j.Midplanes)
		}
		if j.Intensity < 0.6 || j.Intensity > 1.45 {
			t.Fatalf("bad intensity %v", j.Intensity)
		}
		if j.Walltime < 30*time.Minute || j.Walltime > 24*time.Hour {
			t.Fatalf("bad walltime %v", j.Walltime)
		}
		if j.AffinityCol >= 0 {
			affinity++
			if j.Queue != ProdShort {
				t.Fatal("affinity should only apply to prod-short")
			}
			ok := false
			for _, c := range AffinityColumns {
				if j.AffinityCol == c {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("bad affinity column %d", j.AffinityCol)
			}
		}
	}
	if f := float64(counts[ProdLong]) / float64(n); f < 0.12 || f > 0.18 {
		t.Errorf("prod-long fraction = %v, want ≈0.15", f)
	}
	if f := float64(counts[ProdCapability]) / float64(n); f < 0.005 || f > 0.016 {
		t.Errorf("capability fraction = %v, want ≈0.01", f)
	}
	if f := float64(affinity) / float64(n); f < 0.10 || f > 0.18 {
		t.Errorf("affinity fraction = %v, want ≈0.14", f)
	}
}

func TestIntensityMeanNearOne(t *testing.T) {
	g := NewGenerator(5)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += g.sampleIntensity()
	}
	if mean := sum / float64(n); math.Abs(mean-1.0) > 0.03 {
		t.Errorf("mean intensity = %v, want ≈1.0", mean)
	}
}

func TestCapabilityJobsAreLarge(t *testing.T) {
	g := NewGenerator(6)
	for i := 0; i < 200; i++ {
		if s := g.sampleSize(ProdCapability); s < 32 {
			t.Fatalf("capability job size %d < 32 midplanes", s)
		}
	}
}

func TestProdLongWalltimes(t *testing.T) {
	g := NewGenerator(7)
	for i := 0; i < 200; i++ {
		w := g.sampleWalltime(ProdLong)
		if w < 6*time.Hour || w > 24*time.Hour {
			t.Fatalf("prod-long walltime %v out of range", w)
		}
	}
}

func TestPoisson(t *testing.T) {
	g := NewGenerator(8)
	for _, mean := range []float64{0, 0.5, 3, 50} {
		var sum float64
		n := 4000
		for i := 0; i < n; i++ {
			sum += float64(g.poisson(mean))
		}
		got := sum / float64(n)
		tol := 0.15*mean + 0.05
		if math.Abs(got-mean) > tol {
			t.Errorf("poisson(%v) empirical mean = %v", mean, got)
		}
	}
}

func TestDeterminism(t *testing.T) {
	ts := time.Date(2015, 6, 1, 0, 0, 0, 0, timeutil.Chicago)
	a := NewGenerator(9).Arrivals(ts, 24*time.Hour)
	b := NewGenerator(9).Arrivals(ts, 24*time.Hour)
	if len(a) != len(b) {
		t.Fatal("non-deterministic arrival count")
	}
	for i := range a {
		if a[i].Midplanes != b[i].Midplanes || a[i].Walltime != b[i].Walltime {
			t.Fatal("non-deterministic jobs")
		}
	}
}

func TestQueueString(t *testing.T) {
	if ProdLong.String() != "prod-long" || ProdShort.String() != "prod-short" || ProdCapability.String() != "prod-capability" {
		t.Error("Queue.String mismatch")
	}
}

func TestJobString(t *testing.T) {
	g := NewGenerator(10)
	j := g.sample(time.Date(2015, 6, 1, 0, 0, 0, 0, timeutil.Chicago))
	if s := j.String(); len(s) == 0 {
		t.Error("empty job string")
	}
}
