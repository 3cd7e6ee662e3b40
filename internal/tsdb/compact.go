package tsdb

// Retention compaction: fold sealed partitions older than the hot window
// into downsampled blocks (see downsample.go) and rewrite the on-disk
// segments so the cold range is stored once, at 1/12 the footprint.
//
// Crash safety hinges on ordering and one recovery rule. Per shard, the
// disk sequence is: write the cold segment to a temp file, fsync, rename
// it into place, fsync the directory so that rename is durable, and only
// then atomically rewrite (or remove) the raw segment — without the
// directory fsync a power failure could keep the raw removal and lose the
// cold rename. At Open, a cold block is dropped whenever any raw sealed
// block overlaps its window extent — raw wins. A crash before the cold
// rename leaves only a stray .tmp file (old raw + old cold served); a crash
// between the rename and the raw rewrite leaves the new cold block
// overlapping the still-full raw segment, so reopen drops it and serves the
// raw pre-state; a crash after the raw rewrite serves the compacted
// post-state. The fold never splits a compaction window across the hot/cold
// boundary (the fold prefix shrinks until its last window is strictly
// before the first remaining raw sample), so after a clean compaction no
// raw block can overlap a cold block and the recovery rule never discards
// good data.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mira/internal/atomicfile"
	"mira/internal/obs"
)

// CompactStats summarizes one Compact run.
type CompactStats struct {
	// Shards and Blocks count the shards touched and raw blocks folded.
	Shards, Blocks int
	// SourceRecords is the raw records folded; Windows the downsampled
	// windows written for them.
	SourceRecords int64
	Windows       int
	// BytesBefore/BytesAfter compare compressed payload size of the folded
	// raw blocks vs the downsampled blocks replacing them.
	BytesBefore, BytesAfter int64
}

// Reduction is the on-disk size reduction factor for the compacted range.
func (st CompactStats) Reduction() float64 {
	if st.BytesAfter == 0 {
		return 0
	}
	return float64(st.BytesBefore) / float64(st.BytesAfter)
}

// Compact folds data older than Options.Retention (measured back from the
// store's newest record) into the downsampled tier. A no-op when Retention
// is 0 or the store is empty. With a non-empty dir, on-disk segments are
// rewritten as described above; with dir == "" the compaction is
// memory-only.
func (s *Store) Compact(dir string) (CompactStats, error) {
	s.init()
	if s.opts.Retention <= 0 {
		return CompactStats{}, nil
	}
	_, last, ok := s.Bounds()
	if !ok {
		return CompactStats{}, nil
	}
	return s.CompactBefore(dir, last.Add(-s.opts.Retention))
}

// CompactBefore folds sealed blocks whose data lies entirely in compaction
// windows before cutoff. The head block never folds (it is the hot tail by
// construction), and neither does the window holding a shard's newest
// record, so appends always continue past the cold tier.
func (s *Store) CompactBefore(dir string, cutoff time.Time) (CompactStats, error) {
	s.init()
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	_, span := obs.Span(context.Background(), "tsdb.compact")
	defer span.End()
	start := time.Now()
	defer metCompactDur.ObserveSince(start)
	metCompactTotal.Inc()

	win := s.compWin
	cutN := floorDiv(cutoff.UnixNano(), win) * win
	loc := s.location()
	var st CompactStats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sealed := sh.sealed[:len(sh.sealed):len(sh.sealed)]
		cold := sh.cold[:len(sh.cold):len(sh.cold)]
		hasHead := sh.head != nil && len(sh.head.times) > 0
		var headFirst int64
		if hasHead {
			headFirst = sh.head.times[0]
		}
		lastT, hasLast := sh.lastT, sh.hasLast
		sh.mu.RUnlock()
		if len(sealed) == 0 || !hasLast {
			continue
		}
		// Never fold the window containing the shard's newest record: a
		// lagging shard must keep appending into it, and an append landing
		// inside a cold window would create the raw/cold overlap the Open
		// recovery rule resolves by discarding the cold block.
		eff := cutN
		if wm := floorDiv(lastT, win) * win; wm < eff {
			eff = wm
		}
		k := 0
		for k < len(sealed) && sealed[k].maxT < eff {
			k++
		}
		// Shrink the fold prefix until its last window is strictly before
		// the first remaining raw sample's window, so no compaction window
		// straddles the hot/cold boundary.
		for k > 0 {
			lastWin := floorDiv(sealed[k-1].maxT, win)
			var nextT int64
			switch {
			case k < len(sealed):
				nextT = sealed[k].minT
			case hasHead:
				nextT = headFirst
			default:
				nextT = 0 // unreachable: the watermark guard keeps the last block hot
			}
			if floorDiv(nextT, win) <= lastWin {
				k--
				continue
			}
			break
		}
		if k == 0 {
			continue
		}
		fold := sealed[:k]
		d, err := foldBlocks(fold, s.scales, win, "")
		if err != nil {
			return st, err
		}
		if dir != "" {
			shardDir, fi := s.segPlace(dir, i)
			if shardDir != dir {
				if err := os.MkdirAll(shardDir, 0o755); err != nil {
					return st, fmt.Errorf("tsdb: compact shard %d: %w", i, err)
				}
			}
			// A failure from here on (the crash tests inject one before and
			// after the cold rename, through atomicfile.Hook) leaves the disk
			// mid-state and the in-memory store untouched.
			allCold := append(append([]*downBlock(nil), cold...), d)
			if _, err := writeColdSegment(shardDir, fi, loc, allCold); err != nil {
				return st, err
			}
			if err := atomicfile.SyncDir(shardDir); err != nil {
				return st, fmt.Errorf("tsdb: compact shard %d: %w", i, err)
			}
			// Rewrite the raw segment without the folded prefix. Appends may
			// have closed new blocks since the snapshot; they were not on
			// disk before this and will persist at the next Flush, exactly as
			// without compaction.
			rawName := filepath.Join(shardDir, segFileName(fi))
			if len(sealed) > k {
				if _, err := s.writeSegment(shardDir, fi, loc, sealed[k:]); err != nil {
					return st, err
				}
			} else if err := os.Remove(rawName); err != nil && !os.IsNotExist(err) {
				return st, fmt.Errorf("tsdb: compact shard %d: %w", i, err)
			}
		}
		var foldedRecords int
		var foldedBytes int64
		for _, b := range fold {
			foldedRecords += b.count
			foldedBytes += b.payloadBytes()
		}
		sh.mu.Lock()
		// Only compaction removes sealed blocks and compactMu serializes it,
		// so sh.sealed still starts with exactly the folded prefix; appends
		// can only have appended behind it.
		rest := make([]*sealedBlock, len(sh.sealed)-k)
		copy(rest, sh.sealed[k:])
		sh.sealed = rest
		sh.cold = append(sh.cold, d)
		sh.total -= foldedRecords - d.count
		sh.mu.Unlock()

		st.Shards++
		st.Blocks += k
		st.SourceRecords += int64(foldedRecords)
		st.Windows += d.count
		st.BytesBefore += foldedBytes
		st.BytesAfter += d.payloadBytes()
	}
	if dir != "" && st.Shards > 0 {
		n, err := dirSegBytes(dir)
		if err != nil {
			return st, err
		}
		s.diskBytes.Store(n)
	}
	metCompactBlocks.Add(uint64(st.Blocks))
	metCompactRecords.Add(uint64(st.SourceRecords))
	metCompactWindows.Add(uint64(st.Windows))
	if r := st.BytesBefore - st.BytesAfter; r > 0 {
		metCompactBytesReclaimed.Add(uint64(r))
	}
	return st, nil
}

// dirSegBytes sums the on-disk size of all segment files under dir,
// including hall-HH subdirectories of a fleet layout.
func dirSegBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("tsdb: compact: %w", err)
	}
	var n int64
	for _, e := range entries {
		if e.IsDir() {
			if ok, _ := filepath.Match("hall-*", e.Name()); !ok {
				continue
			}
			sub, err := dirSegBytes(filepath.Join(dir, e.Name()))
			if err != nil {
				return 0, err
			}
			n += sub
			continue
		}
		if ok, _ := filepath.Match("shard-*.seg", e.Name()); !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, fmt.Errorf("tsdb: compact: %w", err)
		}
		n += info.Size()
	}
	return n, nil
}
