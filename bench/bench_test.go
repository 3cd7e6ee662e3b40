package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/topology"
)

// tinySizes shrinks every workload to a window the race detector gets
// through in a second or two: a coarse tick, short windows, few requests.
func tinySizes() sizes {
	return sizes{
		Step: 30 * time.Minute,
		// Seed 7 has eleven incidents in this fortnight: enough for the predictor.
		StudyStart: chicago(2016, 10, 1), StudyEnd: chicago(2016, 10, 15),
		StudyWarmupDays: 1,
		TuneBudget:      2,
		MinCVAccuracy:   0.5,
		FixtureStart:    chicago(2015, 1, 1), FixtureEnd: chicago(2015, 1, 13),
		ReadWindow:      100,
		Ladder:          []int{200, 300, 400},
		LatencyLimitMs:  1000,
		OpenSegment:     60,
		ClosedPerRound:  2,
		ClosedBatch:     100,
		TraceStart:      chicago(2015, 1, 1),
		TraceDays:       18,
		IngestEpochs:    2,
		IngestHalls:     1,
		IngestRetention: 5 * 24 * time.Hour,
		IngestReadRPS:   100,
		SetupRepeats:    1,
	}
}

// mayBeZero are the per-layer metrics whose honest reading can be 0 (or
// negative) on the workload that measures them.
var mayBeZero = map[string]bool{
	"telemetrynet.retries": true, "telemetrynet.duplicate_batches": true, "tsdb.crash_recovered_ratio": true,
	"telemetrynet.max_ok_rps": true, "bench.trace_overhead_pct": true, "obs.span_overhead_pct": true,
}

func TestWorkloadsEndToEnd(t *testing.T) {
	scratchRoot = t.TempDir()
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			tr := newTracer(wl.Name)
			o, err := runWorkload(tinySizes(), wl.Name, 7, 500*time.Millisecond, tr)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", o.failed, o.attempted, o.failures)
			}
			for _, d := range endToEnd {
				if d.Name != "peak_rss_mb" && !(o.e2e[d.Name] > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", d.Name, o.e2e[d.Name])
				}
			}
			for _, d := range perLayer {
				v, ok := o.layer[d.Name]
				switch {
				case d.measuredOn(wl.Name) && !ok:
					t.Errorf("per-layer %s not measured", d.Name)
				case d.measuredOn(wl.Name) && v == 0 && !mayBeZero[d.Name]:
					t.Errorf("per-layer %s = 0", d.Name)
				case !d.measuredOn(wl.Name) && ok:
					t.Errorf("per-layer %s measured on %s, which the table does not list", d.Name, wl.Name)
				}
			}
			for name := range o.layer {
				if !knownMetric(perLayer, name) {
					t.Errorf("per-layer %s is not in the table", name)
				}
			}
			if got := o.layer["bench.selftime_coverage"]; got < 0.9 {
				t.Errorf("selftime coverage %.3f, want >= 0.9", got)
			}
			if wl.Name == wIngest && o.layer["tsdb.crash_recovered_ratio"] != 0 {
				t.Errorf("crash_recovered_ratio = %v; an in-memory store has nothing to recover", o.layer["tsdb.crash_recovered_ratio"])
			}
			// The layer split: spans of a layer that does no work are absent.
			absent := "sim."
			if wl.Name == wStudy {
				absent = "telemetrynet."
			}
			for _, s := range tr.spans {
				if strings.HasPrefix(s.Name, absent) {
					t.Fatalf("span %s recorded on %s", s.Name, wl.Name)
				}
			}
		})
	}
}

func knownMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// TestResultLine drives the driver's entry point untraced and checks the
// last line it prints.
func TestResultLine(t *testing.T) {
	scratchRoot = t.TempDir()
	var out bytes.Buffer
	if err := runOne(&out, tinySizes(), wDashboard, 3, 1, false, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(raw) != 4 {
		t.Errorf("result line has %d keys, want exactly correct, attempted, failed, metrics: %s", len(raw), lines[len(lines)-1])
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want the %d end-to-end ones", len(line.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m := line.Metrics[d.Name]; !(m.Value > 0) || m.Unit != d.Unit {
			t.Errorf("%s = %+v", d.Name, m)
		}
	}
}

// stallingReader answers at once except for one call that takes stall.
type stallingReader struct {
	calls   atomic.Int64
	stallAt int64
	stall   time.Duration
}

func (s *stallingReader) Query(topology.RackID, time.Time, time.Time) []sensors.Record { return nil }
func (s *stallingReader) Aggregate(topology.RackID, sensors.Metric, time.Time, time.Time, time.Duration) ([]envdb.WindowAgg, error) {
	return nil, nil
}
func (s *stallingReader) Series(topology.RackID, sensors.Metric, time.Time, time.Time) ([]time.Time, []float64) {
	if s.calls.Add(1) == s.stallAt {
		time.Sleep(s.stall)
	}
	return nil, nil
}

// An open loop charges a stall to every request it delays, because latency
// runs from the intended send time; a loop timing from the actual send
// would see one slow request.
func TestOpenLoopChargesStall(t *testing.T) {
	const rate, n = 200, 120 // 5 ms apart: a 200 ms stall holds back ~40 sends
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i].Op = opSeries
	}
	db := &stallingReader{stallAt: 20, stall: 200 * time.Millisecond}
	res := openLoop(db, rate, 1, fromList(reqs), nil, "")
	if res.sent != n || len(res.errs) != 0 {
		t.Fatalf("sent %d, errors %v", res.sent, res.errs)
	}
	delayed := 0
	for _, d := range res.latency {
		if d > 50*time.Millisecond {
			delayed++
		}
	}
	if delayed < 20 {
		t.Errorf("%d requests saw more than 50 ms from their intended send; the stall should delay about 30", delayed)
	}
	// 120 samples support a 90th percentile: twelve lie beyond it.
	lat, late := sortedMs(res.latency), sortedMs(res.late)
	if lat[len(lat)-1] < 200 {
		t.Errorf("slowest request %.1f ms does not show the 200 ms stall", lat[len(lat)-1])
	}
	if p, q := tailPercentile(lat, 0.99); q != 0.90 || p < 100 {
		t.Errorf("latency tail %.1f ms at q=%v does not show the stall", p, q)
	}
	if p, _ := tailPercentile(late, 0.99); p < 100 {
		t.Errorf("send-lateness tail %.1f ms does not show the backlog behind the stall", p)
	}
	if p, _ := tailPercentile(late, 0.50); p > 20 {
		t.Errorf("median send lateness %.1f ms: the generator should be on time outside the stall", p)
	}
}

func TestQuietestWindow(t *testing.T) {
	// Two segments; the quiet stretch sits in the second and straddles two
	// back-to-back windows, so only a sliding window finds it whole.
	noisy := make([]time.Duration, 1300)
	for i := range noisy {
		noisy[i] = 10 * time.Millisecond
	}
	seg := make([]time.Duration, 2400)
	for i := range seg {
		seg[i] = 10 * time.Millisecond
		if i >= 750 && i < 1750 {
			seg[i] = time.Millisecond
		}
	}
	seg[1200] = time.Second // one outlier does not reach the quiet window's p99
	p50, p95, p99 := quietest([][]time.Duration{noisy, seg})
	if p50 != 1 || p95 != 1 || p99 != 1 {
		t.Errorf("quietest = %v %v %v ms, want the quiet window's 1 ms", p50, p95, p99)
	}
	if p50, _, _ := quietest([][]time.Duration{nil, noisy[:300]}); p50 != 10 {
		t.Errorf("a short segment is one window: p50 = %v", p50)
	}
}

func TestReadsPoolTheWholeRun(t *testing.T) {
	lat := make([]time.Duration, 1000)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	o := newOutcome()
	o.reads(lat)
	if o.e2e["read_p50_ms"] != 500 || o.e2e["read_p95_ms"] != 950 {
		t.Errorf("reads = %v and %v ms, want the nearest-rank 500 and 950", o.e2e["read_p50_ms"], o.e2e["read_p95_ms"])
	}
}

func TestBest(t *testing.T) {
	v := []float64{5, 3, 9, 7}
	if best(v, "lower") != 3 || best(v, "higher") != 9 {
		t.Errorf("fewer than ten repetitions: best is the extreme")
	}
	var twenty []float64
	for i := 1; i <= 20; i++ {
		twenty = append(twenty, float64(i))
	}
	if best(twenty, "lower") != 3 || best(twenty, "higher") != 18 {
		t.Errorf("twenty repetitions: best steps a tenth in from the extreme, got %v and %v", best(twenty, "lower"), best(twenty, "higher"))
	}
}

func TestTailPercentile(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	// p99 of 1000 is rank 990: exactly ten beyond it.
	if got, q := tailPercentile(v, 0.99); got != 990 || q != 0.99 {
		t.Errorf("p99 of 1000 = %v at q=%v", got, q)
	}
	// 999 samples leave nine beyond rank 990: step down to p95.
	if got, q := tailPercentile(v[:999], 0.99); q != 0.95 || got != 950 {
		t.Errorf("p99 of 999 = %v at q=%v, want the p95", got, q)
	}
	if got, q := tailPercentile(v[:12], 0.99); q != 0.50 || got != 6 {
		t.Errorf("p99 of 12 = %v at q=%v, want the median", got, q)
	}
	if got, _ := tailPercentile(nil, 0.99); got != 0 {
		t.Errorf("empty sample = %v", got)
	}
}

func TestIQRShareMatchesPython(t *testing.T) {
	// statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) = [1.75, 3.5, 5.25]
	got := iqrShare([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if want := (5.25 - 1.75) / 3.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "bench.root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "tsdb.a", StartNs: 10, EndNs: 50},
		{ID: 3, Parent: 1, Name: "tsdb.b", StartNs: 30, EndNs: 70}, // overlaps a: covered once
		{ID: 4, Parent: 2, Name: "nn.c", StartNs: 20, EndNs: 30},
		{ID: 5, Parent: 1, Name: "bench.wait", StartNs: 70, EndNs: 90},
		{ID: 6, Parent: 1, Name: "tsdb.open", StartNs: 95, EndNs: -1}, // never ended: ignored
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"bench.root": 20, "tsdb.a": 30, "tsdb.b": 40, "nn.c": 10, "bench.wait": 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	// Layers hold 80 of the 100 that are not deliberate waiting.
	if got := layerCoverage(spans); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("coverage %v, want 0.8", got)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	first, last := chicago(2015, 1, 1), chicago(2015, 3, 1)
	a, b := dashboardSchedule(5, 2000, first, last), dashboardSchedule(5, 2000, first, last)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, dashboardSchedule(6, 2000, first, last)) {
		t.Fatal("two seeds gave the same schedule")
	}
	var ops [3]int
	atNow := 0
	for _, r := range a {
		ops[r.Op]++
		if r.To.Equal(last.Add(time.Second)) {
			atNow++
		}
		if r.From.Before(first) || !r.To.After(r.From) {
			t.Fatalf("request window %v..%v outside the store", r.From, r.To)
		}
	}
	for op, share := range []float64{0.20, 0.40, 0.40} {
		if got := float64(ops[op]) / float64(len(a)); math.Abs(got-share) > 0.04 {
			t.Errorf("%s share %.3f, want about %.2f", opNames[op], got, share)
		}
	}
	if got := float64(atNow) / float64(len(a)); math.Abs(got-0.70) > 0.04 {
		t.Errorf("%.3f of the windows end at the newest record, want about 0.70", got)
	}
}

func TestTransportRefusesMoreConnectionsThanCores(t *testing.T) {
	if _, err := newTransport(runtime.NumCPU() + 1); !errors.Is(err, errTooManyConns) {
		t.Errorf("newTransport(nproc+1) = %v, want errTooManyConns", err)
	}
	rt, err := newTransport(runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	rt.CloseIdleConnections()
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "records_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	noisy := []float64{8, 12, 9, 11, 10}
	for _, c := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"same", lower, steady, steady, "ok"},
		{"inside the bound", lower, steady, []float64{10.5, 10.6, 10.4, 10.5, 10.5}, "ok"},
		{"slower", lower, steady, []float64{11.5, 11.6, 11.4, 11.5, 11.5}, "worse"},
		{"faster", lower, steady, []float64{8, 8.1, 7.9, 8, 8}, "ok"},
		{"throughput fell", higher, steady, []float64{8, 8.1, 7.9, 8, 8}, "worse"},
		{"throughput rose", higher, steady, []float64{12, 12.1, 11.9, 12, 12}, "ok"},
		{"too noisy to tell", lower, noisy, noisy, "unresolved"},
		{"one run a side proves nothing", lower, []float64{10}, []float64{14}, "unresolved"},
		{"noisy but every run better", lower, noisy, []float64{5, 7, 6, 7.5, 6.5}, "ok"},
	} {
		if got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64, failed int) string {
		f := resultFile{Schema: resultSchema}
		for i := 0; i < 4; i++ {
			set := make(map[string]workloadResult)
			for _, wl := range workloads {
				e2e := make(map[string]float64)
				for _, d := range endToEnd {
					e2e[d.Name] = 5
				}
				e2e["wall_s"] = wall + float64(i)*0.01
				set[wl.Name] = workloadResult{Attempted: 100, Failed: failed, EndToEnd: e2e}
			}
			f.Runs = append(f.Runs, set)
		}
		path := dir + "/" + name
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 10, 0)
	var out bytes.Buffer
	if err := compareFiles(&out, base, write("same.json", 10.2, 0)); err != nil {
		t.Errorf("2 %% slower is inside the bound: %v\n%s", err, out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+len(workloads)*len(endToEnd) {
		t.Errorf("%d rows, want a header and one per workload and metric:\n%s", rows, out.String())
	}
	if err := compareFiles(&out, base, write("slow.json", 13.5, 0)); err == nil {
		t.Error("35 % slower passed")
	}
	if err := compareFiles(&out, base, write("failing.json", 10, 1)); err == nil {
		t.Error("a higher failed share passed")
	}
}

// benchmarkJSON mirrors the contract's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []jsonMetric  `json:"end_to_end"`
	PerLayer   []jsonMetric  `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the harness's tables")

func toJSONMetrics(defs []metricDef, bounded bool) []jsonMetric {
	out := make([]jsonMetric, len(defs))
	for i, d := range defs {
		out[i] = jsonMetric{Name: d.Name, Unit: d.Unit, Better: d.Better}
		if bounded {
			out[i].Bound = &defs[i].Bound
		}
	}
	return out
}

// BENCHMARK.json names exactly the workloads and metrics the harness emits.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	if *update {
		err := writeJSON("../BENCHMARK.json", benchmarkJSON{
			Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds,
			Workloads: workloads, EndToEnd: toJSONMetrics(endToEnd, true), PerLayer: toJSONMetrics(perLayer, false),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Workloads, workloads) {
		t.Errorf("workloads differ:\n%v\n%v", b.Workloads, workloads)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", b.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v against %v", kind, g.Name, g.Bound, w.Bound)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s %s (%s): bad or repeated name or unit", kind, g.Name, g.Unit)
			}
			seen[g.Name] = true
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	for _, wl := range b.Workloads {
		if !name.MatchString(wl.Name) || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") || seen[wl.Name] {
			t.Errorf("workload %s: bad name or why", wl.Name)
		}
		seen[wl.Name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(raw) > 64<<10 {
		t.Errorf("over the contract's limits: %d per-layer, %d end-to-end, %d bytes", len(perLayer), len(endToEnd), len(raw))
	}
	for _, d := range perLayer {
		for _, w := range d.Workloads {
			if !knownWorkload(w) {
				t.Errorf("per-layer %s lists unknown workload %s", d.Name, w)
			}
		}
	}
}

func knownWorkload(name string) bool {
	for _, wl := range workloads {
		if wl.Name == name {
			return true
		}
	}
	return false
}
