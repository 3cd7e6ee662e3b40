package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// RunReport is a machine-readable snapshot of the registry at (typically)
// process exit: counters and gauges keyed by series name, histograms with
// cumulative buckets. Every cmd writes one with -report, so two runs can be
// compared series by series.
type RunReport struct {
	Schema      string                   `json:"schema"`
	GeneratedAt string                   `json:"generated_at"`
	Counters    map[string]uint64        `json:"counters"`
	Gauges      map[string]float64       `json:"gauges"`
	Histograms  map[string]HistogramSnap `json:"histograms"`
}

// HistogramSnap summarizes one histogram series.
type HistogramSnap struct {
	Count   uint64       `json:"count"`
	Sum     float64      `json:"sum"`
	Buckets []BucketSnap `json:"buckets"`
}

// BucketSnap is one cumulative bucket; LE is +Inf for the last bucket.
type BucketSnap struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// reportSchema versions the RunReport layout for downstream tooling.
const reportSchema = "mira-run-report/v1"

// Snapshot captures every registered series. Scrape hooks run first, so
// scrape-time gauges (tsdb footprint, shard skew) are fresh. Non-finite
// gauge values are dropped: the report must stay valid JSON.
func (r *Registry) Snapshot() RunReport {
	r.runScrapes()
	rep := RunReport{
		Schema:      reportSchema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Counters:    map[string]uint64{},
		Gauges:      map[string]float64{},
		Histograms:  map[string]HistogramSnap{},
	}
	for _, f := range r.sortedFamilies() {
		values, metrics := f.sortedChildren()
		for i, m := range metrics {
			key := f.name
			if f.labelKey != "" {
				key = fmt.Sprintf("%s{%s=%q}", f.name, f.labelKey, values[i])
			}
			switch v := m.(type) {
			case *Counter:
				rep.Counters[key] = v.Value()
			case *Gauge:
				if val := v.Value(); !math.IsNaN(val) && !math.IsInf(val, 0) {
					rep.Gauges[key] = val
				}
			case *Histogram:
				snap := HistogramSnap{Count: v.Count(), Sum: v.Sum()}
				buckets := v.snapshotBuckets()
				for j, b := range v.bounds {
					snap.Buckets = append(snap.Buckets, BucketSnap{LE: b, Count: buckets[j]})
				}
				snap.Buckets = append(snap.Buckets, BucketSnap{LE: math.Inf(1), Count: buckets[len(buckets)-1]})
				rep.Histograms[key] = snap
			}
		}
	}
	return rep
}

// MarshalJSON renders +Inf bucket bounds as the string "+Inf" (JSON has no
// infinity literal).
func (b BucketSnap) MarshalJSON() ([]byte, error) {
	le := any(b.LE)
	if math.IsInf(b.LE, 1) {
		le = "+Inf"
	}
	return json.Marshal(struct {
		LE    any    `json:"le"`
		Count uint64 `json:"count"`
	}{le, b.Count})
}

// WriteReport writes the snapshot as indented JSON.
func (r *Registry) WriteReport(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: run report: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteReportFile writes the snapshot to path (0644, truncating).
func (r *Registry) WriteReportFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: run report: %w", err)
	}
	if err := r.WriteReport(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteRunReport snapshots the default registry to path.
func WriteRunReport(path string) error { return defaultRegistry.WriteReportFile(path) }
