package tsdb

// Observability instrumentation of the storage engine. Hot-path metrics
// (append, decode) are single lock-free atomic adds on the obs default
// registry — cheap enough for the ingest path (see BenchmarkAppend).
// Footprint metrics are scrape-time gauges refreshed by ExposeGauges, so
// they cost nothing between scrapes.

import (
	"fmt"

	"mira/internal/obs"
)

var (
	metAppend = obs.NewCounter("mira_tsdb_append_total",
		"records accepted by Store.Append across all stores in the process")
	metOutOfOrder = obs.NewCounter("mira_tsdb_out_of_order_dropped_total",
		"records rejected by Store.Append for violating per-rack time order")
	metSealDur = obs.NewHistogram("mira_tsdb_block_seal_duration_seconds",
		"time to compress one frozen block into its sealed payload (never under a shard lock)", nil)
	metFlushBytes = obs.NewCounter("mira_tsdb_flush_bytes_written_total",
		"segment bytes written to disk by Store.Flush")
	metDecode = obs.NewCounter("mira_tsdb_block_decode_total",
		"compressed payload streams decoded: one per timestamp, window-count or value column per block a read touches")
	metQueryDur = obs.NewHistogramVec("mira_tsdb_query_duration_seconds",
		"latency of the read surface, labeled by operation", "op", nil)

	// Parallel scan layer (the merged scan's decode pool and chunk merge).
	metScanWorkers = obs.NewGauge("mira_tsdb_scan_workers",
		"decode workers used by the most recent merged-scan fan-out")
	metScanBlocks = obs.NewCounter("mira_tsdb_scan_blocks_decoded_total",
		"sealed or head blocks decoded by scan-pool workers")
	metScanDecodeDur = obs.NewHistogram("mira_tsdb_scan_block_decode_duration_seconds",
		"time a scan-pool worker spends decoding one run, all channels: a span of at most 512 rows of one block", nil)
	metScanStallDur = obs.NewHistogram("mira_tsdb_scan_merge_stall_seconds",
		"time the chunk merge waits for a shard's next decoded run; near zero when prefetch keeps up", nil)
	metScanRecords = obs.NewCounter("mira_tsdb_scan_records_merged_total",
		"rows delivered in global time order by the merged scan")

	// Retention compaction (Store.Compact / CompactBefore).
	metCompactTotal = obs.NewCounter("mira_tsdb_compact_runs_total",
		"retention compaction runs (including no-op runs)")
	metCompactBlocks = obs.NewCounter("mira_tsdb_compact_blocks_folded_total",
		"raw sealed blocks folded into the downsampled tier")
	metCompactRecords = obs.NewCounter("mira_tsdb_compact_records_folded_total",
		"raw records folded into downsampled windows")
	metCompactWindows = obs.NewCounter("mira_tsdb_compact_windows_written_total",
		"downsampled windows written by compaction")
	metCompactBytesReclaimed = obs.NewCounter("mira_tsdb_compact_bytes_reclaimed_total",
		"payload bytes saved by folding raw blocks into downsampled blocks")
	metCompactDur = obs.NewHistogram("mira_tsdb_compact_duration_seconds",
		"wall time of one retention compaction run across all shards", nil)
)

// ExposeGauges registers scrape-time gauges describing this store's
// footprint on reg (nil selects the obs default registry): record counts,
// sealed/head/disk bytes, compression ratio, and one
// mira_tsdb_shard_samples{shard} gauge per rack so ingest skew across the
// 48 shards is visible at a glance. The gauges refresh from Store.Stats on
// every scrape or report snapshot; expose the store a process serves (last
// registration wins when several stores share a registry).
func (s *Store) ExposeGauges(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	var (
		records      = reg.Gauge("mira_tsdb_records", "stored samples across all racks (sealed + head)")
		sealedBlocks = reg.Gauge("mira_tsdb_sealed_blocks", "immutable compressed blocks across all shards")
		sealedBytes  = reg.Gauge("mira_tsdb_sealed_bytes", "compressed payload bytes of all sealed blocks")
		frozenBlocks = reg.Gauge("mira_tsdb_frozen_blocks", "closed blocks awaiting compression; 0 at rest")
		headBytes    = reg.Gauge("mira_tsdb_head_bytes", "uncompressed columnar footprint (heads and frozen blocks) in bytes")
		diskBytes    = reg.Gauge("mira_tsdb_disk_bytes", "segment-file footprint as of the last Flush or Open")
		perSample    = reg.Gauge("mira_tsdb_compressed_bytes_per_sample", "sealed bytes per (timestamp, value) sample")
		shardSamples = reg.GaugeVec("mira_tsdb_shard_samples", "stored samples per shard (rack), for ingest-skew checks", "shard")
		hallSamples  = reg.GaugeVec("mira_tsdb_hall_samples", "stored samples per machine hall, for fleet ingest-skew checks", "hall")
		coldBlocks   = reg.Gauge("mira_tsdb_cold_blocks", "downsampled blocks across all shards")
		coldWindows  = reg.Gauge("mira_tsdb_cold_windows", "downsampled windows across all shards")
		coldSource   = reg.Gauge("mira_tsdb_cold_source_records", "raw records folded into the downsampled tier")
		coldBytes    = reg.Gauge("mira_tsdb_cold_bytes", "compressed payload bytes of the downsampled tier")
	)
	reg.OnScrape(func() {
		st, frozen := s.stats()
		records.Set(float64(st.Records))
		sealedBlocks.Set(float64(st.SealedBlocks))
		sealedBytes.Set(float64(st.SealedBytes))
		frozenBlocks.Set(float64(frozen))
		headBytes.Set(float64(st.HeadBytes))
		diskBytes.Set(float64(st.DiskBytes))
		perSample.Set(st.BytesPerSample)
		coldBlocks.Set(float64(st.ColdBlocks))
		coldWindows.Set(float64(st.ColdWindows))
		coldSource.Set(float64(st.ColdSourceRecords))
		coldBytes.Set(float64(st.ColdBytes))
		totals := s.shardTotals()
		for i, n := range totals {
			shardSamples.With(fmt.Sprintf("%02d", i)).Set(float64(n))
		}
		fleet := s.Fleet()
		for h := 0; h < fleet.Halls; h++ {
			sum := 0
			for _, n := range totals[h*fleet.Racks : (h+1)*fleet.Racks] {
				sum += n
			}
			hallSamples.With(fmt.Sprintf("%02d", h)).Set(float64(sum))
		}
	})
}

// shardTotals reads each shard's stored-record count under its read lock.
func (s *Store) shardTotals() []int {
	out := make([]int, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		out[i] = sh.total
		sh.mu.RUnlock()
	}
	return out
}

// queryOp names for metQueryDur, kept as constants so the label set stays
// closed.
const (
	opQuery          = "query"
	opSeries         = "series"
	opAggregate      = "aggregate"
	opAggregateRacks = "aggregate_racks"
	opScanChunked    = "scan_chunked"
)
