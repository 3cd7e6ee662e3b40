package core

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"mira/internal/sensors"
	"mira/internal/sim"
	"mira/internal/stats"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/units"
)

// syntheticWindow builds a telemetry window with a linear inlet ramp, for
// unit-testing the feature extractors.
func syntheticWindow(n int, step time.Duration, inletSlopePerStep float64) sim.Window {
	rack := topology.RackID{Row: 1, Col: 2}
	end := time.Date(2016, 8, 1, 12, 0, 0, 0, timeutil.Chicago)
	recs := make([]sensors.Record, n)
	for i := range recs {
		recs[i] = sensors.Record{
			Time:          end.Add(-time.Duration(n-1-i) * step),
			Rack:          rack,
			DCTemperature: 80,
			DCHumidity:    32,
			Flow:          26.5,
			InletTemp:     units.Fahrenheit(64 + inletSlopePerStep*float64(i)),
			OutletTemp:    79,
			Power:         units.Watts(57e3),
		}
	}
	return sim.Window{Rack: rack, End: end, Records: recs}
}

func TestDeltaFeaturesBasics(t *testing.T) {
	step := 5 * time.Minute
	n := int(12*time.Hour/step) + 1
	w := syntheticWindow(n, step, 0.01) // inlet rises 0.01°F per 5 min
	f, err := DeltaFeatures(w.Records, step, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != NumFeatures {
		t.Fatalf("features = %d, want %d", len(f), NumFeatures)
	}
	// Inlet rose by 0.01 × 72 steps = 0.72°F over six hours → ≈+1.06%.
	inletIdx := int(sensors.MetricInletTemp)
	if math.Abs(f[inletIdx]-0.72/64.98) > 2e-3 {
		t.Errorf("inlet delta = %v, want ≈0.0111", f[inletIdx])
	}
	// Constant metrics: zero delta.
	if f[int(sensors.MetricFlow)] != 0 || f[int(sensors.MetricPower)] != 0 {
		t.Errorf("constant metrics should have zero delta: %v", f)
	}
	// At lead 3h, the same slope gives the same six-hour delta.
	f3, err := DeltaFeatures(w.Records, step, 3*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f3[inletIdx]-f[inletIdx]) > 2e-3 {
		t.Errorf("lead-3h inlet delta = %v, want ≈%v", f3[inletIdx], f[inletIdx])
	}
}

func TestDeltaFeaturesErrors(t *testing.T) {
	step := 5 * time.Minute
	w := syntheticWindow(10, step, 0)
	if _, err := DeltaFeatures(w.Records, step, 0); err == nil {
		t.Error("short window should error")
	}
	if _, err := DeltaFeatures(w.Records, 0, 0); err == nil {
		t.Error("zero step should error")
	}
	long := syntheticWindow(int(12*time.Hour/step)+1, step, 0)
	if _, err := DeltaFeatures(long.Records, step, 7*time.Hour); err == nil {
		t.Error("lead beyond window should error")
	}
}

func TestLevelFeatures(t *testing.T) {
	step := 5 * time.Minute
	w := syntheticWindow(20, step, 0)
	f, err := LevelFeatures(w.Records, step, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f[int(sensors.MetricInletTemp)] != 64 {
		t.Errorf("level inlet = %v", f[int(sensors.MetricInletTemp)])
	}
	if f[int(sensors.MetricPower)] != 57000 {
		t.Errorf("level power = %v", f[int(sensors.MetricPower)])
	}
	if _, err := LevelFeatures(w.Records, step, 3*time.Hour); err == nil {
		t.Error("lead beyond window should error")
	}
}

func TestBuildDatasetBalance(t *testing.T) {
	step := 5 * time.Minute
	n := int(12*time.Hour/step) + 1
	var pos, neg []sim.Window
	for i := 0; i < 10; i++ {
		pos = append(pos, syntheticWindow(n, step, 0.02))
	}
	for i := 0; i < 25; i++ {
		neg = append(neg, syntheticWindow(n, step, 0))
	}
	ds, err := BuildDataset(pos, neg, step, time.Hour, DeltaFeatures, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 20 {
		t.Errorf("dataset size = %d, want 20 (balanced)", ds.Len())
	}
	if ds.Positives() != 10 {
		t.Errorf("positives = %d, want 10", ds.Positives())
	}
	// Missing class errors.
	if _, err := BuildDataset(nil, neg, step, time.Hour, DeltaFeatures, 1); err == nil {
		t.Error("no positives should error")
	}
	// Short windows skipped.
	short := []sim.Window{syntheticWindow(5, step, 0)}
	if _, err := BuildDataset(short, neg, step, time.Hour, DeltaFeatures, 1); err == nil {
		t.Error("all-short positives should error")
	}
}

func TestTrainOnSeparableSynthetic(t *testing.T) {
	step := 5 * time.Minute
	n := int(12*time.Hour/step) + 1
	var pos, neg []sim.Window
	for i := 0; i < 40; i++ {
		pos = append(pos, syntheticWindow(n, step, 0.02))
		neg = append(neg, syntheticWindow(n, step, 0.0))
	}
	ds, err := BuildDataset(pos, neg, step, time.Hour, DeltaFeatures, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Train(ds, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	conf := p.Evaluate(ds)
	if conf.Accuracy() < 0.97 {
		t.Errorf("separable training accuracy = %v", conf.Accuracy())
	}
	// Probability output is a valid probability.
	prob := p.Probability(ds.X[0])
	if prob < 0 || prob > 1 {
		t.Errorf("probability = %v", prob)
	}
}

func TestTrainEmptyDataset(t *testing.T) {
	if _, err := Train(Dataset{}, Config{}); err == nil {
		t.Error("empty dataset should error")
	}
	if _, err := TrainLogisticBaseline(Dataset{}, Config{}); err == nil {
		t.Error("empty dataset should error for logistic baseline")
	}
}

// ---------------------------------------------------------------------------
// End-to-end evaluation on simulated telemetry (Fig. 13).
// ---------------------------------------------------------------------------

var simData = struct {
	once      sync.Once
	positives []sim.Window
	negatives []sim.Window
	err       error
}{}

const simStep = timeutil.SampleInterval

// simWindows runs a failure-dense 2016 window once and caches the captured
// telemetry windows.
func simWindows(t *testing.T) (pos, neg []sim.Window) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation-backed predictor test skipped in -short mode")
	}
	simData.once.Do(func() {
		windowTicks := int((FeatureSpan+6*time.Hour)/simStep) + 1
		rec := sim.NewIncidentWindowRecorder(windowTicks, 250, 3000)
		s := sim.New(sim.Config{
			Seed:  77,
			Start: time.Date(2016, 1, 1, 0, 0, 0, 0, timeutil.Chicago),
			End:   time.Date(2017, 1, 1, 0, 0, 0, 0, timeutil.Chicago),
			Step:  simStep,
		})
		s.AddRecorder(rec)
		if err := s.Run(); err != nil {
			simData.err = err
			return
		}
		simData.positives = rec.Positives()
		simData.negatives = rec.Negatives(FeatureSpan)
	})
	if simData.err != nil {
		t.Fatal(simData.err)
	}
	if len(simData.positives) < 20 || len(simData.negatives) < 50 {
		t.Fatalf("too few windows: %d positive, %d negative", len(simData.positives), len(simData.negatives))
	}
	return simData.positives, simData.negatives
}

func TestFig13LeadTimeSweep(t *testing.T) {
	pos, neg := simWindows(t)
	points, err := LeadTimeSweep(pos, neg, simStep, DefaultLeads(), Config{Seed: 9}, DeltaFeatures)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(DefaultLeads()) {
		t.Fatalf("points = %d", len(points))
	}
	first := points[0].Confusion            // 6 h out
	last := points[len(points)-1].Confusion // 30 min out
	// Paper: ≈87% accuracy six hours out.
	if acc := first.Accuracy(); acc < 0.72 || acc > 0.99 {
		t.Errorf("accuracy at 6h = %v, want ≈0.87", acc)
	}
	// Paper: ≈97% accuracy 30 minutes out.
	if acc := last.Accuracy(); acc < 0.90 {
		t.Errorf("accuracy at 30min = %v, want ≈0.97", acc)
	}
	// Performance improves as the CMF approaches.
	if last.Accuracy() <= first.Accuracy() {
		t.Errorf("accuracy should improve toward the failure: %v -> %v", first.Accuracy(), last.Accuracy())
	}
	// FPR shrinks toward the failure (paper: 6% → 1.2%).
	if last.FalsePositiveRate() > first.FalsePositiveRate()+0.02 {
		t.Errorf("FPR should shrink toward the failure: %v -> %v",
			first.FalsePositiveRate(), last.FalsePositiveRate())
	}
	if last.FalsePositiveRate() > 0.10 {
		t.Errorf("FPR at 30min = %v, want small", last.FalsePositiveRate())
	}
	// All four metrics are in the same ballpark at a given lead (paper:
	// "all metrics of performance provide nearly similar values").
	for _, pt := range points {
		c := pt.Confusion
		if math.Abs(c.Precision()-c.Recall()) > 0.25 {
			t.Errorf("lead %v: precision %v and recall %v diverge", pt.Lead, c.Precision(), c.Recall())
		}
	}
}

func TestDeltaBeatsLevelFeatures(t *testing.T) {
	// Paper §VI-D: "not only the level of cooling metrics, but more
	// importantly the change in their values are key features". The same
	// network trained on level features should do worse at long leads.
	pos, neg := simWindows(t)
	lead := 4 * time.Hour
	deltaDS, err := BuildDataset(pos, neg, simStep, lead, DeltaFeatures, 11)
	if err != nil {
		t.Fatal(err)
	}
	levelDS, err := BuildDataset(pos, neg, simStep, lead, LevelFeatures, 11)
	if err != nil {
		t.Fatal(err)
	}
	deltaConf, err := CrossValidate(deltaDS, Config{Seed: 12}, 5)
	if err != nil {
		t.Fatal(err)
	}
	levelConf, err := CrossValidate(levelDS, Config{Seed: 12}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if deltaConf.Accuracy() <= levelConf.Accuracy() {
		t.Errorf("delta features (%v) should beat level features (%v) at lead %v",
			deltaConf.Accuracy(), levelConf.Accuracy(), lead)
	}
}

func TestNNvsBaselines(t *testing.T) {
	pos, neg := simWindows(t)
	lead := 2 * time.Hour
	ds, err := BuildDataset(pos, neg, simStep, lead, DeltaFeatures, 13)
	if err != nil {
		t.Fatal(err)
	}
	nnConf, err := CrossValidate(ds, Config{Seed: 14}, 5)
	if err != nil {
		t.Fatal(err)
	}
	thr, err := FitThresholdBaseline(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	thrConf := thr.Evaluate(ds)
	if nnConf.Accuracy() <= thrConf.Accuracy()-0.02 {
		t.Errorf("NN (%v) should not lose to the threshold baseline (%v)", nnConf.Accuracy(), thrConf.Accuracy())
	}
	logit, err := TrainLogisticBaseline(ds, Config{Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	logitConf := logit.Evaluate(ds)
	if logitConf.Accuracy() < 0.5 {
		t.Errorf("logistic baseline accuracy = %v, should beat chance", logitConf.Accuracy())
	}
}

func TestThresholdBaselineUnit(t *testing.T) {
	ds := Dataset{
		X: [][]float64{{0, 0}, {0.1, -0.1}, {5, 5}, {-4, 6}},
		Y: []float64{0, 0, 1, 1},
	}
	b, err := FitThresholdBaseline(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	conf := b.Evaluate(ds)
	if conf.Recall() != 1 {
		t.Errorf("obvious outliers should be caught: %v", conf)
	}
	if _, err := FitThresholdBaseline(Dataset{X: [][]float64{{1}}, Y: []float64{1}}, 2); err == nil {
		t.Error("baseline without healthy examples should error")
	}
}

func TestTuneArchitecture(t *testing.T) {
	if testing.Short() {
		t.Skip("architecture search skipped in -short mode")
	}
	pos, neg := simWindows(t)
	ds, err := BuildDataset(pos, neg, simStep, time.Hour, DeltaFeatures, 16)
	if err != nil {
		t.Fatal(err)
	}
	hidden, err := TuneArchitecture(ds, Config{Seed: 17, Epochs: 25}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(hidden) != 3 {
		t.Fatalf("hidden = %v", hidden)
	}
	for _, h := range hidden {
		if h < 2 || h > 16 {
			t.Errorf("layer width %d out of the search grid", h)
		}
	}
	// The tuned architecture should train successfully and do well.
	conf, err := CrossValidate(ds, Config{Hidden: hidden, Seed: 18}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Accuracy() < 0.8 {
		t.Errorf("tuned architecture accuracy = %v", conf.Accuracy())
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	step := 5 * time.Minute
	n := int(12*time.Hour/step) + 1
	var pos, neg []sim.Window
	for i := 0; i < 20; i++ {
		pos = append(pos, syntheticWindow(n, step, 0.02))
		neg = append(neg, syntheticWindow(n, step, 0))
	}
	ds, err := BuildDataset(pos, neg, step, time.Hour, DeltaFeatures, 19)
	if err != nil {
		t.Fatal(err)
	}
	a, err := CrossValidate(ds, Config{Seed: 20, Epochs: 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidate(ds, Config{Seed: 20, Epochs: 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("cross-validation should be deterministic: %v vs %v", a, b)
	}
}

// goldenSweep is LeadTimeSweep over simWindows with Config{Seed: 9}, recorded
// while the fits still ran one after another on the caller's goroutine.
var goldenSweep = []LeadPoint{
	{360 * time.Minute, stats.Confusion{TP: 109, FP: 14, TN: 122, FN: 27}},
	{300 * time.Minute, stats.Confusion{TP: 112, FP: 11, TN: 125, FN: 24}},
	{240 * time.Minute, stats.Confusion{TP: 114, FP: 14, TN: 122, FN: 22}},
	{180 * time.Minute, stats.Confusion{TP: 133, FP: 1, TN: 135, FN: 3}},
	{120 * time.Minute, stats.Confusion{TP: 135, FP: 1, TN: 135, FN: 1}},
	{60 * time.Minute, stats.Confusion{TP: 133, FP: 0, TN: 136, FN: 3}},
	{30 * time.Minute, stats.Confusion{TP: 136, FP: 1, TN: 135, FN: 0}},
}

// TestGoldenLeadTimeSweep checks that the pooled fits give the serial
// confusions whatever the number of Ps sharing them.
func TestGoldenLeadTimeSweep(t *testing.T) {
	pos, neg := simWindows(t)
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		points, err := LeadTimeSweep(pos, neg, simStep, DefaultLeads(), Config{Seed: 9}, DeltaFeatures)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(points, goldenSweep) {
			t.Errorf("GOMAXPROCS %d: sweep %v, want %v", procs, points, goldenSweep)
		}
	}
}

// TestCrossValidateTooFewExamples: a short study can leave BuildDataset
// with one balanced pair; the sweep (5 folds) and the tuner (3 folds) must
// report that as an error, not panic in KFold.
func TestCrossValidateTooFewExamples(t *testing.T) {
	step := 5 * time.Minute
	n := int(12*time.Hour/step) + 1
	for _, tc := range []struct {
		examples          int
		sweepErr, tuneErr bool
	}{
		{examples: 2, sweepErr: true, tuneErr: true},
		{examples: 4, sweepErr: true, tuneErr: false},
	} {
		var pos, neg []sim.Window
		for i := 0; i < tc.examples/2; i++ {
			pos = append(pos, syntheticWindow(n, step, 0.02))
			neg = append(neg, syntheticWindow(n, step, 0))
		}
		_, err := LeadTimeSweep(pos, neg, step, DefaultLeads(), Config{Seed: 1, Epochs: 2}, DeltaFeatures)
		if got := errors.Is(err, ErrTooFewExamples); got != tc.sweepErr {
			t.Errorf("%d examples: LeadTimeSweep err = %v, want ErrTooFewExamples: %v", tc.examples, err, tc.sweepErr)
		}
		ds, err := BuildDataset(pos, neg, step, time.Hour, DeltaFeatures, 1)
		if err != nil {
			t.Fatal(err)
		}
		hidden, err := TuneArchitecture(ds, Config{Seed: 1, Epochs: 2}, 1)
		if got := errors.Is(err, ErrTooFewExamples); got != tc.tuneErr || (err == nil) != (len(hidden) == 3) {
			t.Errorf("%d examples: TuneArchitecture = %v, %v; want ErrTooFewExamples: %v", tc.examples, hidden, err, tc.tuneErr)
		}
	}
}

func TestTrainRejectsRaggedDataset(t *testing.T) {
	ds := Dataset{X: [][]float64{{1, 2}, {3}}, Y: []float64{1, 0}}
	if _, err := Train(ds, Config{Epochs: 1}); err == nil {
		t.Error("ragged dataset should error, not panic in the scaler")
	}
}

func TestInferenceAllocatesNothing(t *testing.T) {
	step := 5 * time.Minute
	w := syntheticWindow(int(12*time.Hour/step)+1, step, 0.01)
	var f [NumFeatures]float64
	if a := testing.AllocsPerRun(100, func() { _ = DeltaFeaturesInto(&f, w.Records, step, time.Hour) }); a != 0 {
		t.Errorf("DeltaFeaturesInto allocates %v times per call, want 0", a)
	}
	p := syntheticPredictor(t)
	if a := testing.AllocsPerRun(100, func() { p.Probability(f[:]) }); a != 0 {
		t.Errorf("Probability allocates %v times per call, want 0", a)
	}
}

func TestProbabilityWideFeatures(t *testing.T) {
	// More features than NumFeatures take Probability's heap scratch.
	ds := Dataset{Y: []float64{1, 0, 1, 0}}
	for i := 0; i < 4; i++ {
		x := make([]float64, NumFeatures+2)
		for j := range x {
			x[j] = float64((i+1)*(j+1)) * ds.Y[i]
		}
		ds.X = append(ds.X, x)
	}
	p, err := Train(ds, Config{Seed: 1, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Probability(ds.X[0]), p.net.Predict(p.scaler.Transform(ds.X[0])); got != want {
		t.Errorf("Probability = %v, want %v", got, want)
	}
}

// TestProbabilityConcurrent scores one Predictor from 8 goroutines; under
// -race it fails if inference writes anything shared.
func TestProbabilityConcurrent(t *testing.T) {
	p := syntheticPredictor(t)
	step := 5 * time.Minute
	var inputs [][]float64
	for i := 0; i < 8; i++ {
		w := syntheticWindow(int(12*time.Hour/step)+1, step, 0.005*float64(i))
		f, err := DeltaFeatures(w.Records, step, 0)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, f)
	}
	want := make([]float64, len(inputs))
	for i, f := range inputs {
		want[i] = p.Probability(f)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				i := (g + rep) % len(inputs)
				if got := p.Probability(inputs[i]); got != want[i] {
					t.Errorf("goroutine %d: Probability(input %d) = %v, want %v", g, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// syntheticPredictor trains a small predictor on separable synthetic
// windows, for tests that need any trained model.
func syntheticPredictor(t *testing.T) *Predictor {
	t.Helper()
	step := 5 * time.Minute
	n := int(12*time.Hour/step) + 1
	var pos, neg []sim.Window
	for i := 0; i < 10; i++ {
		pos = append(pos, syntheticWindow(n, step, 0.02))
		neg = append(neg, syntheticWindow(n, step, 0))
	}
	ds, err := BuildDataset(pos, neg, step, time.Hour, DeltaFeatures, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Train(ds, Config{Seed: 4, Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	return p
}
