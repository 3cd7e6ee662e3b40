package envdb

// Scan context: the per-request scan counters a context carries into
// DB.EachChunkMergedCtx, and the merged scan's row view.
//
// ScanStats lives here (not in tsdb) so the telemetry server can read the
// counters without importing the storage engine.

import (
	"context"
	"sync/atomic"

	"mira/internal/sensors"
)

// ScanStats accumulates per-request scan work: rows delivered by the
// merge and blocks decoded. Counters are atomic — decode workers update
// them concurrently.
type ScanStats struct {
	Records       atomic.Int64
	BlocksDecoded atomic.Int64
}

type scanStatsKey struct{}

// ContextWithScanStats returns a context carrying s; scans started under
// it add their work to the counters.
func ContextWithScanStats(ctx context.Context, s *ScanStats) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, scanStatsKey{}, s)
}

// ScanStatsFrom returns the context's scan counters, or nil.
func ScanStatsFrom(ctx context.Context) *ScanStats {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(scanStatsKey{}).(*ScanStats)
	return s
}

// ContextTierScanner is the row view of the merged scan as a method.
// tsdb.Store and telemetrynet.Client implement it with ScanRecords; the
// repository's benchmark harness (bench/replay.go) names the interface,
// which is the only reason it exists.
type ContextTierScanner interface {
	EachRecordMergedTierCtx(ctx context.Context, workers int, f func(sensors.Record, Tier) bool) error
}

// ScanRecords is the row view of db's merged scan: it materializes each
// chunk row with Chunk.Record and hands it to f with its tier, stopping
// when f returns false.
func ScanRecords(ctx context.Context, db DB, workers int, f func(sensors.Record, Tier) bool) error {
	return db.EachChunkMergedCtx(ctx, workers, func(c *Chunk) bool {
		for i := range c.Times {
			if !f(c.Record(i), c.Tiers[i]) {
				return false
			}
		}
		return true
	})
}
