package tsdb

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

// TestConcurrentAppendQuery hammers the store with one writer per rack and
// several analytical readers scanning the same shards — the production
// shape: the simulator appends while analyses run. Run under -race (the
// Makefile's `check` target does) to validate the snapshot discipline.
func TestConcurrentAppendQuery(t *testing.T) {
	s := NewStoreWith(Options{Partition: time.Hour}) // 12 samples/block: many seals
	racks := []topology.RackID{{Row: 0, Col: 1}, {Row: 1, Col: 8}, {Row: 2, Col: 15}}
	const perRack = 4000
	end := base.Add(perRack * timeutil.SampleInterval)

	var wg sync.WaitGroup
	done := make(chan struct{})

	// One writer per rack shard.
	for wi, rack := range racks {
		wg.Add(1)
		go func(seed int64, rack topology.RackID) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perRack; i++ {
				ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
				if err := s.Append(synthRecord(rng, rack, ts)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(int64(wi), rack)
	}

	// Readers: range queries, series, aggregates, hall-wide aggregates, full
	// scans.
	for ri := 0; ri < 4; ri++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				rack := racks[rng.Intn(len(racks))]
				lo := rng.Intn(perRack)
				hi := lo + rng.Intn(perRack-lo)
				from := base.Add(time.Duration(lo) * timeutil.SampleInterval)
				to := base.Add(time.Duration(hi) * timeutil.SampleInterval)
				switch rng.Intn(5) {
				case 0:
					recs := s.Query(rack, from, to)
					for i, r := range recs {
						if r.Rack != rack {
							t.Errorf("cross-shard contamination: %v", r.Rack)
							return
						}
						if i > 0 && r.Time.Before(recs[i-1].Time) {
							t.Error("unordered query result")
							return
						}
					}
				case 1:
					ts, vs := s.Series(rack, sensors.MetricInletTemp, from, to)
					if len(ts) != len(vs) {
						t.Errorf("series lengths %d/%d", len(ts), len(vs))
						return
					}
				case 2:
					aggs, err := s.Aggregate(rack, sensors.MetricPower, from, to, time.Hour)
					if err != nil {
						t.Errorf("aggregate: %v", err)
						return
					}
					for _, w := range aggs {
						if w.Count > 0 && (w.Min > w.Max || w.Sum < float64(w.Count)*w.Min) {
							t.Errorf("inconsistent aggregate %+v", w)
							return
						}
					}
				case 3:
					if err := s.EachChunkMergedCtx(context.Background(), 1, func(*envdb.Chunk) bool { return false }); err != nil {
						t.Errorf("scan: %v", err)
						return
					}
					_ = s.Len()
				case 4:
					metrics := []sensors.Metric{sensors.MetricFlow, sensors.MetricPower}
					aggs, err := s.AggregateRacks(context.Background(), 0, metrics, from, to.Add(time.Nanosecond))
					if err != nil {
						t.Errorf("aggregate racks: %v", err)
						return
					}
					written := map[int]bool{}
					for _, r := range racks {
						written[r.Index()] = true
					}
					for i, w := range aggs {
						if w.Count > 0 && (!written[i/len(metrics)] || w.Min > w.Max) {
							t.Errorf("inconsistent hall aggregate %d: %+v", i, w)
							return
						}
					}
				}
			}
		}(int64(ri))
	}

	// Wait for writers, then stop readers.
	writersDone := make(chan struct{})
	go func() {
		// Writers are the first len(racks) Adds; simplest is to re-wait on
		// a separate group — instead track via counting appended records.
		for s.Len() < perRack*len(racks) {
			time.Sleep(time.Millisecond)
		}
		close(writersDone)
	}()
	<-writersDone
	close(done)
	wg.Wait()

	if s.Len() != perRack*len(racks) {
		t.Fatalf("Len = %d, want %d", s.Len(), perRack*len(racks))
	}
	for _, rack := range racks {
		if got := len(s.Query(rack, base, end)); got != perRack {
			t.Errorf("rack %v: %d records, want %d", rack, got, perRack)
		}
	}
}
