package tsdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/telemetrynet"
	"mira/internal/topology"
)

// aggregateRacksShapes is the scan equivalence table's store layouts plus
// a fleet narrower than a hall, whose racks 20..47 are outside the store.
var aggregateRacksShapes = append(append([]scanShape(nil), scanShapes...), scanShape{
	name: "twenty-racks", build: func(t *testing.T) *Store {
		fleet := topology.Fleet{Halls: 1, Racks: 20}
		s := NewStoreWith(Options{Partition: 6 * time.Hour, Fleet: fleet})
		var racks []topology.RackID
		for g := 0; g < fleet.NumRacks(); g++ {
			racks = append(racks, fleet.RackAt(g))
		}
		fill(t, 300, racks, s)
		return s
	}})

// aggregateRacksRanges is the whole stored range and an interior range
// that starts and ends between samples, so block edges clip rows.
func aggregateRacksRanges(s *Store) [][2]time.Time {
	first, last, ok := s.Bounds()
	if !ok {
		return [][2]time.Time{{base, base.Add(time.Hour)}}
	}
	span := last.Sub(first)
	return [][2]time.Time{
		{first, last.Add(time.Nanosecond)},
		{first.Add(span/3 + time.Second), first.Add(2*span/3 + time.Second)},
	}
}

// aggregateRacksReference is the contract of AggregateRacks written with
// the per-rack call: for rack r of hall and metrics[j], entry r*k+j is
// AggregateCtx(rack, metrics[j], from, to, 0)'s one window. Each entry is
// also checked against the second window of a two-window query over
// [from-span, to), which goes through the windowed kernel instead of the
// single-window one, so a fault in the shared single-window kernel cannot
// hide behind itself.
func aggregateRacksReference(t *testing.T, s *Store, hall int, metrics []sensors.Metric, from, to time.Time) ([]envdb.WindowAgg, error) {
	t.Helper()
	ctx := context.Background()
	span := to.Sub(from)
	var out []envdb.WindowAgg
	for i := 0; i < topology.NumRacks; i++ {
		rack := topology.RackByIndex(i)
		rack.Hall = hall
		for _, m := range metrics {
			one, err := s.AggregateCtx(ctx, rack, m, from, to, 0)
			if err != nil {
				return nil, err
			}
			two, err := s.AggregateCtx(ctx, rack, m, from.Add(-span), to, span)
			if err != nil {
				return nil, err
			}
			if len(one) != 1 || len(two) != 2 {
				t.Fatalf("rack %v %v: %d and %d windows, want 1 and 2", rack, m, len(one), len(two))
			}
			sameWindow(t, fmt.Sprintf("rack %v %v: single-window vs windowed kernel", rack, m), one[0], two[1], true)
			out = append(out, one[0])
		}
	}
	return out, nil
}

// sameWindow requires bit-identical windows: count, min/max/sum bits, the
// start instant and its zone offset, and with sameLoc the same location.
func sameWindow(t *testing.T, label string, got, want envdb.WindowAgg, sameLoc bool) {
	t.Helper()
	if got.Count != want.Count ||
		math.Float64bits(got.Min) != math.Float64bits(want.Min) ||
		math.Float64bits(got.Max) != math.Float64bits(want.Max) ||
		math.Float64bits(got.Sum) != math.Float64bits(want.Sum) {
		t.Fatalf("%s: window {n=%d min=%v max=%v sum=%v}, want {n=%d min=%v max=%v sum=%v}",
			label, got.Count, got.Min, got.Max, got.Sum, want.Count, want.Min, want.Max, want.Sum)
	}
	if !got.Start.Equal(want.Start) || got.Start.Format(time.RFC3339Nano) != want.Start.Format(time.RFC3339Nano) {
		t.Fatalf("%s: start %v, want %v", label, got.Start, want.Start)
	}
	if sameLoc && got.Start.Location() != want.Start.Location() {
		t.Fatalf("%s: start location %v, want %v", label, got.Start.Location(), want.Start.Location())
	}
}

// TestAggregateRacksEquivalence is AggregateRacks' correctness table: on
// every store shape, through the compressed store and the remote client
// over HTTP, each (rack, metric) entry must equal the per-rack pushdown
// bit for bit — racks without rows and racks outside the fleet included —
// and a corrupt block must fail the whole call with an error, never a
// panic or a partial result.
func TestAggregateRacksEquivalence(t *testing.T) {
	metricSets := [][]sensors.Metric{
		sensors.AllMetrics(),
		{sensors.MetricOutletTemp, sensors.MetricDCTemperature, sensors.MetricOutletTemp},
	}
	ctx := context.Background()
	for _, shape := range aggregateRacksShapes {
		t.Run(shape.name, func(t *testing.T) {
			s := shape.build(t)
			srv := httptest.NewServer(telemetrynet.NewServer(s, telemetrynet.ServerOptions{}).Handler())
			t.Cleanup(srv.Close)
			client := telemetrynet.NewClient(srv.URL, telemetrynet.ClientOptions{})
			halls := s.Fleet().Halls
			for hall := 0; hall <= halls; hall++ {
				corrupt := shape.corrupt && hall < halls // hall `halls` is outside the fleet
				for ri, r := range aggregateRacksRanges(s) {
					if corrupt && ri > 0 {
						break // the interior range misses the corrupt first block
					}
					for _, metrics := range metricSets {
						label := fmt.Sprintf("hall %d [%v, %v) %v", hall, r[0], r[1], metrics)
						want, refErr := aggregateRacksReference(t, s, hall, metrics, r[0], r[1])
						got, err := s.AggregateRacks(ctx, hall, metrics, r[0], r[1])
						stores := map[string][]envdb.WindowAgg{"tsdb": got}
						if corrupt {
							if refErr == nil {
								t.Fatalf("%s: the per-rack reference read the corrupt block cleanly", label)
							}
							if err == nil || got != nil {
								t.Fatalf("%s: tsdb returned %d windows and error %v over a corrupt block", label, len(got), err)
							}
							if errors.Is(err, envdb.ErrAggregateShape) {
								t.Fatalf("%s: a corrupt block reported as a refused query shape: %v", label, err)
							}
						} else if refErr != nil || err != nil {
							t.Fatalf("%s: reference error %v, tsdb error %v", label, refErr, err)
						}
						if hall < halls {
							remote, err := client.AggregateRacks(ctx, hall, metrics, r[0], r[1])
							if corrupt {
								if err == nil || remote != nil || !strings.Contains(err.Error(), "server 500") {
									t.Fatalf("%s: client returned %d windows and error %v over a corrupt block", label, len(remote), err)
								}
							} else if err != nil {
								t.Fatalf("%s: client: %v", label, err)
							}
							stores["client"] = remote
						}
						if corrupt {
							continue
						}
						for name, got := range stores {
							if len(got) != len(want) {
								t.Fatalf("%s %s: %d windows, want %d", name, label, len(got), len(want))
							}
							for i := range want {
								sameWindow(t, fmt.Sprintf("%s %s entry %d", name, label, i), got[i], want[i], name == "tsdb")
							}
						}
					}
				}
			}
		})
	}
}

// TestAggregateShapeErrors: refused query shapes wrap the envdb sentinel
// the server maps to 400, and an empty or inverted range has no entries.
func TestAggregateShapeErrors(t *testing.T) {
	s := NewStore()
	fill(t, 10, topology.AllRacks(), s)
	ctx := context.Background()
	to := base.Add(time.Hour)
	if _, err := s.Aggregate(topology.RackByIndex(0), sensors.MetricFlow, base, base.Add(24*time.Hour), time.Nanosecond); !errors.Is(err, envdb.ErrAggregateShape) {
		t.Errorf("too many windows: %v, want ErrAggregateShape", err)
	}
	if _, err := s.AggregateCtx(ctx, topology.RackByIndex(0), sensors.NumMetrics, base, to, 0); !errors.Is(err, envdb.ErrAggregateShape) {
		t.Errorf("unknown metric: %v, want ErrAggregateShape", err)
	}
	if _, err := s.AggregateRacks(ctx, 0, []sensors.Metric{sensors.MetricFlow, -1}, base, to); !errors.Is(err, envdb.ErrAggregateShape) {
		t.Errorf("AggregateRacks unknown metric: %v, want ErrAggregateShape", err)
	}
	for _, r := range [][2]time.Time{{base, base}, {to, base}} {
		if aggs, err := s.AggregateRacks(ctx, 0, sensors.AllMetrics(), r[0], r[1]); err != nil || len(aggs) != 0 {
			t.Errorf("AggregateRacks over [%v, %v): %d windows, %v", r[0], r[1], len(aggs), err)
		}
	}
}
