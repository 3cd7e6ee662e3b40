package tsdb

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
)

// restartBlock builds a sealed block straight from a timestamp column and
// up to sensors.NumMetrics integer columns, encoded as seal encodes them
// but without the quantization step, so a column may hold deltas seal never
// produces (wider than 56 bits). Channels without a column are XOR zeros.
func restartBlock(ts []int64, cols [][]int64) *sealedBlock {
	b := &sealedBlock{minT: ts[0], maxT: ts[len(ts)-1], count: len(ts), times: encodeTimes(ts)}
	for m := range b.ch {
		if m < len(cols) {
			b.ch[m] = channelData{enc: encIntPacked, scale: 1, data: encodeIntsPacked(cols[m])}
		} else {
			b.ch[m] = channelData{enc: encXOR, data: encodeXOR(make([]float64, len(ts)))}
		}
	}
	return b
}

// restartColumns are the integer columns every restart case decodes:
// small noise, width-0 groups (a constant stretch, then a repeated value
// every other group), and groups wider than 56 bits (jumps across most of
// the int64 range, which the packed codec takes with wrapping deltas).
func restartColumns(rng *rand.Rand, n int) [][]int64 {
	noise, flat, wide := make([]int64, n), make([]int64, n), make([]int64, n)
	var v int64
	for i := range noise {
		v += rng.Int63n(2001) - 1000
		noise[i] = v
		if g := i / packGroup; g%2 == 1 || i < 3*packGroup {
			flat[i] = 4242
		} else {
			flat[i] = rng.Int63n(50)
		}
		wide[i] = rng.Int63n(100)
		if rng.Intn(40) == 0 {
			wide[i] = rng.Int63() - 1<<62
		}
	}
	return [][]int64{noise, flat, wide}
}

// restartTimes is a timestamp column of n rows: the fixed 300 s cadence,
// or irregular steps with repeated instants and jumps large enough for the
// 64-bit varbit bucket.
func restartTimes(rng *rand.Rand, n int, irregular bool) []int64 {
	ts := make([]int64, n)
	t := int64(1_425_189_600e9)
	for i := range ts {
		ts[i] = t
		step := int64(300e9)
		if irregular {
			switch rng.Intn(10) {
			case 0:
				step = 0 // a repeated instant
			case 1:
				step = rng.Int63n(30 * 86400e9) // up to a month's gap
			default:
				step = 290e9 + rng.Int63n(20e9)
			}
		}
		t += step
	}
	return ts
}

// restartRowCounts are the block sizes the range decoders are checked on:
// one row, group and restart edges on both sides, and partial last groups.
var restartRowCounts = []int{1, 2, 63, 64, 65, 255, 256, 257, 300, 513, 1000}

// TestRangeDecodeMatchesFull: for every block shape, the restart index
// holds each span's first timestamp, and a blockReader seeked to every row
// lo and stepped to every hi it can serve decodes the same rows as the
// full decode, through an arena still holding an earlier read's rows.
func TestRangeDecodeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, n := range restartRowCounts {
		for _, irregular := range []bool{false, true} {
			t.Run(fmt.Sprintf("rows=%d/irregular=%v", n, irregular), func(t *testing.T) {
				ts := restartTimes(rng, n, irregular)
				cols := restartColumns(rng, n)
				b := restartBlock(ts, cols)
				idx, err := b.index()
				if err != nil {
					t.Fatal(err)
				}
				spans := (n + restartStride - 1) / restartStride
				if len(idx.first) != spans || len(idx.times) != spans {
					t.Fatalf("index has %d/%d spans, want %d", len(idx.first), len(idx.times), spans)
				}
				for k, first := range idx.first {
					if first != ts[k*restartStride] {
						t.Fatalf("span %d starts at %d, want %d", k, first, ts[k*restartStride])
					}
				}
				var rd blockReader
				var ar scanArena
				rd.reset(blockView{sealed: b})
				for lo := 0; lo < n; lo++ {
					for _, hi := range rangeEnds(rng, lo, n) {
						r0 := lo / restartStride * restartStride
						if lo == r0 {
							if err := rd.seek(lo, colTimes); err != nil {
								t.Fatal(err)
							}
							run, err := rd.next(hi-r0, colTimes, &ar)
							if err != nil {
								t.Fatal(err)
							}
							if run.row != r0 || !slices.Equal(run.times, ts[r0:hi]) {
								t.Fatalf("timestamps [%d, %d) differ from the full decode", r0, hi)
							}
						}
						for m, col := range cols {
							if err := rd.seek(lo, colOf(sensors.Metric(m))); err != nil {
								t.Fatal(err)
							}
							run, err := rd.next(hi-r0, colOf(sensors.Metric(m)), &ar)
							if err != nil {
								t.Fatal(err)
							}
							if run.row != r0 || !slices.Equal(run.ints[m][lo-r0:], col[lo:hi]) {
								t.Fatalf("column %d rows [%d, %d) differ from the full decode", m, lo, hi)
							}
						}
					}
				}
			})
		}
	}
}

// rangeEnds are the ends hi of [lo, hi) checked for one lo: every one on a
// small block, else the next row, group and restart edges, the block end
// and a random one.
func rangeEnds(rng *rand.Rand, lo, n int) []int {
	if n <= 300 {
		ends := make([]int, 0, n-lo)
		for hi := lo + 1; hi <= n; hi++ {
			ends = append(ends, hi)
		}
		return ends
	}
	ends := []int{lo + 1, (lo/packGroup + 1) * packGroup, (lo/restartStride + 1) * restartStride, n, lo + 1 + rng.Intn(n-lo)}
	for i := range ends {
		ends[i] = min(ends[i], n)
	}
	return ends
}

// TestPointSpanMatchesFull drives the point-read path over one block —
// blockReader.readRange and the arena's float conversion — for random
// ranges, covering the block whole and in part, and compares each with
// searchRange over the full decode.
func TestPointSpanMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, n := range restartRowCounts {
		for _, irregular := range []bool{false, true} {
			ts := restartTimes(rng, n, irregular)
			cols := restartColumns(rng, n)
			b := restartBlock(ts, cols)
			var ar scanArena
			var rd blockReader
			for trial := 0; trial < 300; trial++ {
				// Ends drawn from just outside the block to just past it, on
				// and off stored instants.
				a := ts[0] - 1e9 + rng.Int63n(ts[n-1]-ts[0]+2e9)
				z := ts[0] - 1e9 + rng.Int63n(ts[n-1]-ts[0]+2e9)
				if trial%3 == 0 {
					a = ts[rng.Intn(n)]
				}
				fromN, toN := min(a, z), max(a, z)+1
				lo, hi := searchRange(ts, fromN, toN)
				rd.reset(blockView{sealed: b})
				run, rlo, rhi, err := rd.readRange(fromN, toN, allCols, &ar)
				if err != nil {
					t.Fatal(err)
				}
				if run.row+rlo != lo || run.row+rhi != hi || !slices.Equal(run.times[rlo:rhi], ts[lo:hi]) {
					t.Fatalf("rows=%d: span of [%d, %d) = [%d, %d), want [%d, %d)", n, fromN, toN, run.row+rlo, run.row+rhi, lo, hi)
				}
				// A range covering the block in part decodes the timestamps of
				// the restart spans it overlaps, no more.
				if b.idx != nil && (fromN > b.minT || toN <= b.maxT) {
					if r0, r1 := b.idx.rows(fromN, toN, n); len(ar.times) != r1-r0 {
						t.Fatalf("rows=%d: [%d, %d) decoded %d timestamps, want the %d of rows [%d, %d)", n, fromN, toN, len(ar.times), r1-r0, r0, r1)
					}
				}
				if lo >= hi {
					continue
				}
				for m, col := range cols {
					ints, vals := run.ints[m], ar.floats(run, m, rlo, rhi)
					for i := rlo; i < rhi; i++ {
						if ints[i] != col[run.row+i] || vals[i] != float64(col[run.row+i]) {
							t.Fatalf("rows=%d: column %d row %d = %d/%v, want %d", n, m, run.row+i, ints[i], vals[i], col[run.row+i])
						}
					}
				}
			}
		}
	}
}

// TestWholeBlockReadsSkipIndex: reads that cover every block whole — the
// merged scan, whole-range aggregates and point reads — decode from the
// stream head and build no restart index; the first read covering a block
// in part builds that block's index and no other.
func TestWholeBlockReadsSkipIndex(t *testing.T) {
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	rack := pointRacks[0]
	fill(t, 900, pointRacks, s)
	s.SealAll()
	built := func() (n int) {
		for i := range s.shards {
			for _, b := range s.shards[i].snapshot().sealed {
				if b.idx != nil {
					n++
				}
			}
		}
		return n
	}
	first, last, _ := s.Bounds()
	end := last.Add(time.Nanosecond)
	if err := s.EachChunkMergedCtx(context.Background(), 2, func(*envdb.Chunk) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateRacks(context.Background(), 0, sensors.AllMetrics(), first, end); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Aggregate(rack, sensors.MetricPower, first, end, time.Hour); err != nil {
		t.Fatal(err)
	}
	s.Query(rack, first, end)
	s.Series(rack, sensors.MetricFlow, first, end)
	if n := built(); n != 0 {
		t.Fatalf("whole-block reads built %d restart indexes, want 0", n)
	}
	s.Series(rack, sensors.MetricFlow, first.Add(26*time.Hour), first.Add(27*time.Hour))
	if n := built(); n != 1 {
		t.Fatalf("a one-hour read built %d restart indexes, want 1", n)
	}
}
