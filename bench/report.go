package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// workloadResult is one workload of one full run: the untraced child's
// end-to-end metrics and the traced child's per-layer metrics.
type workloadResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

// resultFile is the schema of -out.
type resultFile struct {
	Schema  string                      `json:"schema"`
	Host    hostInfo                    `json:"host"`
	Seed    int64                       `json:"seed"`
	Seconds int                         `json:"seconds"`
	Units   map[string]string           `json:"units"`
	Runs    []map[string]workloadResult `json:"runs"`
}

const resultSchema = "mira-bench/v1"

// runAll runs every workload in its own child process (a fresh heap each),
// first untraced and then traced, runs times over, prints every metric and
// writes the -out file.
func runAll(w io.Writer, seed int64, secs, runs int, out, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Schema: resultSchema, Host: readHost(fullSizes()), Seed: seed, Seconds: secs, Units: make(map[string]string)}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		file.Units[d.Name] = d.Unit
	}
	failed := 0
	for r := 0; r < runs; r++ {
		set := make(map[string]workloadResult)
		for _, wl := range workloads {
			res := workloadResult{}
			for _, traced := range []int{0, 1} {
				line, err := runChild(w, self, wl.Name, seed, secs, traced, outDir)
				if err != nil {
					return fmt.Errorf("%s (trace %d): %w", wl.Name, traced, err)
				}
				values := make(map[string]float64, len(line.Metrics))
				for name, m := range line.Metrics {
					values[name] = m.Value
				}
				res.Attempted += line.Attempted
				res.Failed += line.Failed
				if traced == 0 {
					res.EndToEnd = values
				} else {
					res.PerLayer = values
				}
			}
			failed += res.Failed
			set[wl.Name] = res
		}
		file.Runs = append(file.Runs, set)
	}
	if out != "" {
		if err := writeJSON(out, file); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", out)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// runChild runs one workload one way in a child process, copies what it
// prints and returns its result line. A child that reports failed
// operations exits non-zero after printing the line; the line still counts.
func runChild(w io.Writer, self, workload string, seed int64, secs, traced int, outDir string) (resultLine, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(secs), "-trace", strconv.Itoa(traced), "-outdir", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(w, &stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil || line.Metrics == nil {
		return line, errors.Join(errors.New("child printed no result line"), runErr)
	}
	return line, nil
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema || len(f.Runs) == 0 {
		return f, fmt.Errorf("%s: not a %s result file with at least one run", path, resultSchema)
	}
	return f, nil
}

// series collects one end-to-end metric of one workload across a file's
// runs, with the failed share.
func (f resultFile) series(workload, metric string) (values []float64) {
	for _, run := range f.Runs {
		if v, ok := run[workload].EndToEnd[metric]; ok {
			values = append(values, v)
		}
	}
	return values
}

func (f resultFile) failedShare(workload string) float64 {
	var attempted, failed int
	for _, run := range f.Runs {
		attempted += run[workload].Attempted
		failed += run[workload].Failed
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// minRunsForVerdict is how many runs a side needs before its median can be
// called worse: fewer have no quartiles to speak of.
const minRunsForVerdict = 4

// verdict applies one metric's bound. worse: the new median is worse than
// the old by more than the bound. unresolved: either side's run-to-run
// spread exceeds the bound, so a median inside it proves nothing, unless
// every new run reads better than every old one; or a side has too few runs
// for a median that is out of bounds to mean anything.
func verdict(d metricDef, old, new []float64) string {
	mo, mn := median(old), median(new)
	worseBy := (mn - mo) / mo
	better := func(a, b float64) bool { return a < b }
	if d.Better == "higher" {
		worseBy = -worseBy
		better = func(a, b float64) bool { return a > b }
	}
	if worseBy > d.Bound {
		if min(len(old), len(new)) < minRunsForVerdict {
			return "unresolved"
		}
		return "worse"
	}
	if max(iqrShare(old), iqrShare(new)) > d.Bound {
		for _, n := range new {
			for _, o := range old {
				if !better(n, o) {
					return "unresolved"
				}
			}
		}
	}
	return "ok"
}

// compareFiles prints one row per workload and end-to-end metric and fails
// on any "worse" or on a higher failed share.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := readResultFile(oldPath)
	if err != nil {
		return err
	}
	new, err := readResultFile(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median\tnew median\tchange\told spread\tnew spread\tbound\tverdict")
	bad := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			o, n := old.series(wl.Name, d.Name), new.series(wl.Name, d.Name)
			if len(o) == 0 || len(n) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t\t\t\t\t\t\tmissing\n", wl.Name, d.Name, d.Unit)
				bad++
				continue
			}
			v := verdict(d, o, n)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n", wl.Name, d.Name, d.Unit,
				median(o), median(n), (median(n)/median(o)-1)*100, iqrShare(o)*100, iqrShare(n)*100, d.Bound*100, v)
		}
		if fo, fn := old.failedShare(wl.Name), new.failedShare(wl.Name); fn > fo {
			fmt.Fprintf(tw, "%s\tfailed share\t\t%.6g\t%.6g\t\t\t\t\tworse\n", wl.Name, fo, fn)
			bad++
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are worse or missing", bad)
	}
	return nil
}
