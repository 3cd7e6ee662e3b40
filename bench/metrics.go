package main

import (
	"fmt"
	"time"

	"mira/internal/timeutil"
)

// Workload names, in the order a full run executes them.
const (
	wStudy     = "study_local"
	wReplay    = "replay_remote"
	wDashboard = "dashboard_read"
	wIngest    = "ingest_live"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{wStudy, "miraanalyze -data cold path in one process: sim and scheduler do most of the wall, core/nn the predictor stage, telemetrynet nothing, so a wire or serving change must not move it"},
	{wReplay, "miraanalyze -remote over loopback on one connection: bulk streaming (block decode, merge, scan-frame encode, socket, client decode, replay); sim does nothing"},
	{wDashboard, "many small zipf and now-biased reads, open loop then closed loop at nproc connections: per-request handler and HTTP cost dominates, decode is small, the opposite of replay_remote"},
	{wIngest, "writes beside reads: a 4-hall push through one client while a second connection trickles reads, then Flush, Compact, Open; a read-side gain that taxes ingest or a durability change shows here"},
}

// metricDef describes one reported number. Workloads lists where a
// per-layer metric is measured (it reads 0 elsewhere: the layer does no work
// there); end-to-end metrics are measured on every workload.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
	Workloads          []string
}

// endToEnd is what a user of the pipeline sees. The driver wants every one
// of them from every workload, so each is defined in the pipeline's common
// currency (records, reads, bytes) and README.md says what it covers where.
// The timing bounds are as wide as the contract allows: the reference host's
// speed drifts by 10-15 % from one run to the next (README.md, "Noise").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "records_per_s", Unit: "records/s", Better: "higher", Bound: 0.25},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "read_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "disk_bytes_per_sample", Unit: "B", Better: "lower", Bound: 0.01},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
}

func on(w ...string) []string { return w }

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		// study_local: stage numbers, then the layers under each stage.
		{Name: "study_wall_s", Unit: "s", Better: "lower", Workloads: on(wStudy)},
		{Name: "sim_days_per_s", Unit: "days/s", Better: "higher", Workloads: on(wStudy)},
		{Name: "figures_s", Unit: "s", Better: "lower", Workloads: on(wStudy)},
		{Name: "predictor_s", Unit: "s", Better: "lower", Workloads: on(wStudy)},
		{Name: "sim.run_s", Unit: "s", Better: "lower", Workloads: on(wStudy)},
		{Name: "sim.self_s", Unit: "s", Better: "lower", Workloads: on(wStudy)},
		{Name: "sim.tick_us", Unit: "us", Better: "lower", Workloads: on(wStudy)},
		{Name: "scheduler.step_us", Unit: "us", Better: "lower", Workloads: on(wStudy)},
		{Name: "sim.window_recorder_s", Unit: "s", Better: "lower", Workloads: on(wStudy)},
		{Name: "analysis.collect_live_s", Unit: "s", Better: "lower", Workloads: on(wStudy)},
		{Name: "tsdb.append_s", Unit: "s", Better: "lower", Workloads: on(wStudy)},
		{Name: "tsdb.append_ns_per_record", Unit: "ns", Better: "lower", Workloads: on(wStudy)},
		{Name: "sim.ticks", Unit: "count", Better: "higher", Workloads: on(wStudy)},
		{Name: "sim.records", Unit: "count", Better: "higher", Workloads: on(wStudy)},
		{Name: "sim.incidents", Unit: "count", Better: "higher", Workloads: on(wStudy)},
		{Name: "sim.cmfs", Unit: "count", Better: "higher", Workloads: on(wStudy)},
		{Name: "tsdb.seal_flush_s", Unit: "s", Better: "lower", Workloads: on(wStudy)},
		{Name: "tsdb.open_s", Unit: "s", Better: "lower", Workloads: on(wStudy, wIngest)},
		{Name: "tsdb.disk_bytes", Unit: "B", Better: "lower", Workloads: on(wStudy)},
		{Name: "analysis.replay_s", Unit: "s", Better: "lower", Workloads: on(wStudy)},
		{Name: "analysis.pushdown_s", Unit: "s", Better: "lower", Workloads: on(wStudy)},
		{Name: "analysis.figures_ms", Unit: "ms", Better: "lower", Workloads: on(wStudy)},
		{Name: "analysis.figure_crc32", Unit: "count", Better: "higher", Workloads: on(wStudy)},
		{Name: "core.dataset_ms", Unit: "ms", Better: "lower", Workloads: on(wStudy)},
		{Name: "bayesopt.tune_s", Unit: "s", Better: "lower", Workloads: on(wStudy)},
		{Name: "core.sweep_s", Unit: "s", Better: "lower", Workloads: on(wStudy)},
		{Name: "nn.train_ms", Unit: "ms", Better: "lower", Workloads: on(wStudy)},
		{Name: "mitigation.evaluate_ms", Unit: "ms", Better: "lower", Workloads: on(wStudy)},
		{Name: "core.cv_accuracy_1h", Unit: "ratio", Better: "higher", Workloads: on(wStudy)},

		// replay_remote.
		{Name: "replay_records_per_s", Unit: "records/s", Better: "higher", Workloads: on(wReplay)},
		{Name: "tsdb.scan_chunk_s", Unit: "s", Better: "lower", Workloads: on(wReplay)},
		{Name: "analysis.replay_local_s", Unit: "s", Better: "lower", Workloads: on(wReplay)},
		{Name: "telemetrynet.handler_scan_s", Unit: "s", Better: "lower", Workloads: on(wReplay)},
		{Name: "telemetrynet.scan_wire_bytes", Unit: "B", Better: "lower", Workloads: on(wReplay)},
		{Name: "telemetrynet.wire_bytes_per_record", Unit: "B", Better: "lower", Workloads: on(wReplay)},
		{Name: "telemetrynet.client_scan_s", Unit: "s", Better: "lower", Workloads: on(wReplay)},
		{Name: "telemetrynet.socket_decode_s", Unit: "s", Better: "lower", Workloads: on(wReplay)},
		{Name: "analysis.replay_remote_s", Unit: "s", Better: "lower", Workloads: on(wReplay)},
		{Name: "telemetrynet.pushdown_s", Unit: "s", Better: "lower", Workloads: on(wReplay)},
		{Name: "telemetrynet.pushdown_requests", Unit: "count", Better: "lower", Workloads: on(wReplay)},
		{Name: "analysis.remote_over_local", Unit: "ratio", Better: "lower", Workloads: on(wReplay)},

		// dashboard_read.
		{Name: "dash_p50_ms", Unit: "ms", Better: "lower", Workloads: on(wDashboard)},
		{Name: "dash_p99_ms", Unit: "ms", Better: "lower", Workloads: on(wDashboard)},
		{Name: "dash_sat_rps", Unit: "req/s", Better: "higher", Workloads: on(wDashboard)},
	}
	for _, op := range opNames {
		m = append(m,
			metricDef{Name: "tsdb." + op + "_us", Unit: "us", Better: "lower", Workloads: on(wDashboard)},
			metricDef{Name: "telemetrynet.handler_" + op + "_us", Unit: "us", Better: "lower", Workloads: on(wDashboard)},
			metricDef{Name: "telemetrynet.rt_" + op + "_us", Unit: "us", Better: "lower", Workloads: on(wDashboard)},
			metricDef{Name: "telemetrynet.resp_bytes_" + op, Unit: "B", Better: "lower", Workloads: on(wDashboard)},
		)
	}
	for _, r := range rungNames {
		m = append(m,
			metricDef{Name: "telemetrynet.p50_ms." + r, Unit: "ms", Better: "lower", Workloads: on(wDashboard)},
			metricDef{Name: "telemetrynet.p99_ms." + r, Unit: "ms", Better: "lower", Workloads: on(wDashboard)},
			metricDef{Name: "telemetrynet.achieved_rps." + r, Unit: "req/s", Better: "higher", Workloads: on(wDashboard)},
			metricDef{Name: "bench.late_p99_ms." + r, Unit: "ms", Better: "lower", Workloads: on(wDashboard)},
		)
	}
	m = append(m,
		metricDef{Name: "telemetrynet.max_ok_rps", Unit: "req/s", Better: "higher", Workloads: on(wDashboard)},
		metricDef{Name: "obs.span_overhead_pct", Unit: "%", Better: "lower", Workloads: on(wDashboard)},

		// ingest_live.
		metricDef{Name: "ingest_records_per_s", Unit: "records/s", Better: "higher", Workloads: on(wIngest)},
		metricDef{Name: "ingest_read_p50_ms", Unit: "ms", Better: "lower", Workloads: on(wIngest)},
		metricDef{Name: "persist_s", Unit: "s", Better: "lower", Workloads: on(wIngest)},
		metricDef{Name: "tsdb.append_tick_ns_per_record", Unit: "ns", Better: "lower", Workloads: on(wIngest)},
		metricDef{Name: "telemetrynet.client_encode_ns_per_record", Unit: "ns", Better: "lower", Workloads: on(wIngest)},
		metricDef{Name: "telemetrynet.handler_ingest_ns_per_record", Unit: "ns", Better: "lower", Workloads: on(wIngest)},
		metricDef{Name: "telemetrynet.push_ns_per_record", Unit: "ns", Better: "lower", Workloads: on(wIngest)},
		metricDef{Name: "telemetrynet.ack_p50_ms", Unit: "ms", Better: "lower", Workloads: on(wIngest)},
		metricDef{Name: "telemetrynet.ack_p99_ms", Unit: "ms", Better: "lower", Workloads: on(wIngest)},
		metricDef{Name: "telemetrynet.batches", Unit: "count", Better: "lower", Workloads: on(wIngest)},
		metricDef{Name: "telemetrynet.retries", Unit: "count", Better: "lower", Workloads: on(wIngest)},
		metricDef{Name: "telemetrynet.duplicate_batches", Unit: "count", Better: "lower", Workloads: on(wIngest)},
		metricDef{Name: "tsdb.flush_s", Unit: "s", Better: "lower", Workloads: on(wIngest)},
		metricDef{Name: "tsdb.compact_s", Unit: "s", Better: "lower", Workloads: on(wIngest)},
		metricDef{Name: "tsdb.compact_reduction", Unit: "ratio", Better: "higher", Workloads: on(wIngest)},
		metricDef{Name: "tsdb.write_amp", Unit: "ratio", Better: "lower", Workloads: on(wIngest)},
		metricDef{Name: "tsdb.crash_recovered_ratio", Unit: "ratio", Better: "higher", Workloads: on(wIngest)},
		metricDef{Name: "telemetrynet.read_p99_ms", Unit: "ms", Better: "lower", Workloads: on(wIngest)},
		metricDef{Name: "tsdb.read_idle_p50_ms", Unit: "ms", Better: "lower", Workloads: on(wIngest)},

		// Every workload.
		metricDef{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "bench.selftime_coverage", Unit: "ratio", Better: "higher"},
	)
	return m
}

// sizes are the fixed constants of the benchmark. The seed drives the sim
// seed and the request schedules; nothing else is an input. Tests substitute
// small windows and a coarse tick.
type sizes struct {
	// Step is the simulation tick and sample cadence.
	Step time.Duration

	// study_local simulates [StudyStart, StudyEnd), as many whole passes as
	// the run's seconds hold. The window sits in the Theta-integration surge
	// so the predictor stage has enough CMFs.
	StudyStart, StudyEnd time.Time
	StudyWarmupDays      int
	TuneBudget           int
	MinCVAccuracy        float64

	// The replay_remote/dashboard_read fixture store simulates
	// [FixtureStart, FixtureEnd).
	FixtureStart, FixtureEnd time.Time

	// ReadWindow is how many requests of the dashboard mix one window of
	// closed-loop reads holds: study_local sends studyReadWindows of them
	// straight to the reopened store after every pass, replay_remote one over
	// its connection every round.
	ReadWindow int

	// dashboard_read: rate ladder (requests/s; read_* come from rung 1, the
	// others run traced only) and its p99 limit. A round is OpenSegment
	// requests open loop at rung 1, then ClosedPerRound closed-loop batches of
	// ClosedBatch requests.
	Ladder         []int
	LatencyLimitMs float64
	OpenSegment    int
	ClosedPerRound int
	ClosedBatch    int

	// ingest_live: the trace is [TraceStart, TraceStart+TraceDays) captured
	// once, then pushed IngestEpochs times back to back (each epoch shifted
	// past the previous one) into every hall, one pass after another while
	// the run's seconds last.
	TraceStart      time.Time
	TraceDays       int
	IngestEpochs    int
	IngestHalls     int
	IngestRetention time.Duration
	IngestReadRPS   int

	// SetupRepeats is how many times set-up runs; setup_s is the median.
	SetupRepeats int
}

func chicago(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, timeutil.Chicago)
}

// fullSizes is what BENCHMARK.json's command measures.
func fullSizes() sizes {
	return sizes{
		Step:       timeutil.SampleInterval,
		StudyStart: chicago(2016, 6, 15), StudyEnd: chicago(2016, 10, 13),
		StudyWarmupDays: 10,
		TuneBudget:      8,
		MinCVAccuracy:   0.80,
		FixtureStart:    chicago(2015, 1, 1), FixtureEnd: chicago(2015, 3, 2),
		ReadWindow:      1000,
		Ladder:          []int{500, 1000, 2000},
		LatencyLimitMs:  25,
		OpenSegment:     2000,
		ClosedPerRound:  3,
		ClosedBatch:     1000,
		TraceStart:      chicago(2015, 1, 1),
		TraceDays:       40,
		IngestEpochs:    2,
		IngestHalls:     4,
		IngestRetention: 30 * 24 * time.Hour,
		IngestReadRPS:   350,
		SetupRepeats:    5,
	}
}

func window(a, b time.Time) string {
	return fmt.Sprintf("%s..%s", a.Format("2006-01-02"), b.Format("2006-01-02"))
}

// outcome is what one run of one workload produces.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e               map[string]float64
	layer             map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// op counts one attempted operation; a non-nil err makes it a failed one.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.fail(err.Error())
	}
}

// fail counts a failed operation that was already counted as attempted.
func (o *outcome) fail(msg string) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, msg)
	}
}

// check counts an oracle as one operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(fmt.Sprintf(format, args...))
	}
}

// reads reports read_p50_ms and read_p95_ms over every read of the run.
func (o *outcome) reads(lat []time.Duration) {
	ms := sortedMs(lat)
	o.e2e["read_p50_ms"], _ = tailPercentile(ms, 0.50)
	o.e2e["read_p95_ms"], _ = tailPercentile(ms, 0.95)
}

// latencyWindow is how many consecutive requests one open-loop latency
// window holds (enough for its 99th percentile to have ten samples beyond
// it), and windowStride how far the next window starts after the last.
const (
	latencyWindow = 1000
	windowStride  = 250
)

// quietest slides a window of latencyWindow requests over every segment of
// open-loop latencies (in send order), takes each percentile per window and
// returns the quietest window's: the host's jitter only ever adds latency,
// and an open loop turns a little of it into a lot of queueing. A segment
// shorter than one window is one window, and a percentile without ten
// samples beyond it steps down (tailPercentile); the full sizes never need
// that.
func quietest(segments [][]time.Duration) (p50, p95, p99 float64) {
	qs := [3]float64{0.50, 0.95, 0.99}
	var lows [3]float64
	first := true
	for _, seg := range segments {
		for a := 0; len(seg) > 0 && (a == 0 || a+latencyWindow <= len(seg)); a += windowStride {
			ms := sortedMs(seg[a:min(a+latencyWindow, len(seg))])
			for i, q := range qs {
				if v, _ := tailPercentile(ms, q); first || v < lows[i] {
					lows[i] = v
				}
			}
			first = false
		}
	}
	return lows[0], lows[1], lows[2]
}
