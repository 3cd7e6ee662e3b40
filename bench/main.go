// Command bench is the repository's benchmark: four workloads over the
// twin -> store -> wire -> figures pipeline, each measured end to end
// (untraced) and layer by layer (traced), each checked against an oracle.
// README.md in this directory defines every name it prints.
//
//	bash bench/run.sh -seed 42 -out bench/out/latest.json   every workload, both ways
//	bash bench/run.sh -workload dashboard_read -trace 1     one workload, one way
//	bash bench/run.sh -compare old.json new.json            the regression verdict
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

func main() {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in this process (default: every workload, each in a child process, untraced then traced)")
	seed := fs.Int64("seed", 42, "drives the simulation seed and every request schedule")
	secs := fs.Int("seconds", defaultSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "0: untraced, print the end-to-end metrics; 1: traced, print the per-layer metrics")
	out := fs.String("out", "", "with every workload: write the results here as JSON")
	outDir := fs.String("outdir", "bench/out", "where traced runs write trace-<workload>.json")
	runs := fs.Int("runs", 1, "with every workload: repeat the whole set this many times, so -compare has a spread")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare old.json new.json")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files, got %d", fs.NArg())
		} else {
			err = compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
		}
	case *workload != "":
		err = runOne(os.Stdout, fullSizes(), *workload, *seed, *secs, *trace == 1, *outDir)
	default:
		err = runAll(os.Stdout, *seed, *secs, *runs, *out, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricValue is one metric in a result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload dispatches to the workload's function under a scratch
// directory that is gone when it returns.
func runWorkload(sz sizes, name string, seed int64, budget time.Duration, tr *tracer) (*outcome, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(scratchRoot, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	switch name {
	case wStudy:
		return runStudyLocal(sz, seed, budget, scratch, tr)
	case wReplay:
		return runReplayRemote(sz, seed, budget, scratch, tr)
	case wDashboard:
		return runDashboardRead(sz, seed, budget, scratch, tr)
	case wIngest:
		return runIngestLive(sz, seed, budget, scratch, tr)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scratchRoot holds fixture stores and data directories while a run lasts;
// it sits in the build directory, inside the checkout.
var scratchRoot = filepath.Join(".bench_build", "scratch")

// runOne runs one workload in this process, prints every metric by name and
// ends with the result line. A failed operation is an error: the line says
// so and the exit code is not 0.
func runOne(w io.Writer, sz sizes, name string, seed int64, secs int, traced bool, outDir string) error {
	host := readHost(sz)
	var tr *tracer
	defs := endToEnd
	if traced {
		tr = newTracer(name)
		defs = perLayer
	}
	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v\nhost %s\n", name, seed, secs, traced, hostJSON)

	o, err := runWorkload(sz, name, seed, time.Duration(secs)*time.Second, tr)
	if o == nil {
		return err
	}
	if err != nil {
		o.fail(err.Error())
	}
	rss, rssErr := peakRSSMiB()
	if rssErr != nil {
		return rssErr
	}
	o.e2e["peak_rss_mb"] = rss

	values := o.e2e
	if traced {
		values = o.layer
		if err := tr.write(filepath.Join(outDir, "trace-"+name+".json"), host, seed, values); err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
	}
	line := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		if !traced || d.measuredOn(name) {
			fmt.Fprintf(w, "%-44s %16.6g %s\n", d.Name, values[d.Name], d.Unit)
		}
	}
	for _, f := range o.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	if o.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", name, o.failed, o.attempted)
	}
	return nil
}

func (d metricDef) measuredOn(workload string) bool {
	if d.Workloads == nil {
		return true
	}
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}
