package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"mira/internal/analysis"
	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/telemetrynet"
)

// setupFixture is the set-up of replay_remote and dashboard_read: build,
// persist, warm-open and serve the fixture store, several times, keeping
// the last.
func setupFixture(sz sizes, seed int64, scratch string) (*fixture, float64, error) {
	n := 0
	return medianOf(sz.SetupRepeats, func() (*fixture, error) {
		n++
		return buildFixture(seed, sz.FixtureStart, sz.FixtureEnd, sz.Step, filepath.Join(scratch, fmt.Sprintf("fixture-%d", n)))
	}, (*fixture).close)
}

// storeFigs is everything `miraanalyze -remote` prints: the pushdown
// figures and the replayed ones.
type storeFigs struct {
	Push7   analysis.RackCoolant
	Push9   analysis.RackAmbient
	Offline offlineFigs
}

// analyzeStore is the miraanalyze figure pass over db, local store or wire
// client alike: Fig 7/9 pushdown, the replay, Figs 3/8. The replay surface
// is error-free and panics on a failed request; that comes back as an error.
func analyzeStore(ctx context.Context, db envdb.DB, sp *span, pushdownSpan, replaySpan string) (figs storeFigs, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("replay panicked: %v", p)
		}
	}()
	agg, ok := db.(envdb.Aggregator)
	if !ok {
		return figs, fmt.Errorf("%T cannot push aggregation down", db)
	}
	s := sp.child(pushdownSpan)
	figs.Push7, err = analysis.Fig7CoolantPushdownHall(ctx, agg, 0)
	if err == nil {
		figs.Push9, err = analysis.Fig9AmbientPushdownHall(ctx, agg, 0)
	}
	s.end()
	if err != nil {
		return figs, err
	}
	s = sp.child(replaySpan)
	figs.Offline = offlineFrom(analysis.CollectFromStoreCtx(ctx, db, analysis.CollectOptions{}))
	s.end()
	return figs, nil
}

// remoteAnalysis is one `miraanalyze -remote` pass over one connection.
func remoteAnalysis(ctx context.Context, c *telemetrynet.Client, sp *span) (storeFigs, error) {
	s := sp.child("telemetrynet.info")
	info, err := c.Info()
	s.end()
	if err != nil {
		return storeFigs{}, err
	}
	if !info.HasData {
		return storeFigs{}, fmt.Errorf("remote store is empty")
	}
	return analyzeStore(ctx, c, sp, "telemetrynet.pushdown", "analysis.replay_remote")
}

// drain counts the records a merged time-order scan of db yields.
func drain(ctx context.Context, db envdb.ContextTierScanner) (int, error) {
	n := 0
	err := db.EachRecordMergedTierCtx(ctx, 0, func(sensors.Record, envdb.Tier) bool { n++; return true })
	return n, err
}

// runReplayRemote is the replay_remote workload.
func runReplayRemote(sz sizes, seed int64, budget time.Duration, scratch string, tr *tracer) (*outcome, error) {
	o := newOutcome()
	fx, setup, err := setupFixture(sz, seed, scratch)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	o.e2e["setup_s"] = setup
	ctx := context.Background()

	// The truth the remote figures must equal, computed outside any timing.
	local, err := analyzeStore(ctx, fx.db, nil, "", "")
	if err != nil {
		return nil, fmt.Errorf("local analysis: %w", err)
	}

	rt, err := newTransport(1)
	if err != nil {
		return nil, err
	}
	defer rt.CloseIdleConnections()
	// Traced, the requests are kept for the handler-only probe.
	var capture *captureTransport
	client := newClient(fx.srv.url, rt)
	if tr != nil {
		capture = &captureTransport{inner: rt}
		client = newClient(fx.srv.url, capture)
	}

	// A round is two remote analyses and then one window of reads, so both
	// sample the whole run and not one stretch of it.
	root := tr.begin(nil, "bench.replay_remote")
	var walls []float64
	var lat []time.Duration
	perRep := 0
	err = repeatFor(budget, 2, func(round int) error {
		for k := 0; k < 2; k++ {
			before := 0
			if capture != nil {
				before = len(capture.reqs)
			}
			rep := root.child("bench.analysis")
			t0 := time.Now()
			figs, err := remoteAnalysis(ctx, client, rep)
			walls = append(walls, time.Since(t0).Seconds())
			rep.end()
			o.op(err)
			if err != nil {
				return err
			}
			o.check(figuresClose(figs, local, 0), "remote figures differ from the local ones")
			if capture != nil {
				perRep = len(capture.reqs) - before
			}
		}
		probe := root.child("bench.read_probe")
		reads := closedLoop(client, dashboardSchedule(subSeed(seed, round), sz.ReadWindow, fx.first, fx.last), 1, probe, "telemetrynet.rt")
		probe.end()
		o.count(reads, fx.db)
		lat = append(lat, reads.latency...)
		return nil
	})
	root.end()
	if err != nil {
		return o, err
	}

	replayed, err := drain(ctx, client)
	o.op(err)
	o.check(replayed == fx.records, "remote scan yielded %d records, the store holds %d", replayed, fx.records)

	wall := best(walls, "lower")
	o.e2e["wall_s"] = wall
	o.e2e["records_per_s"] = float64(fx.records) / wall
	o.e2e["disk_bytes_per_sample"] = float64(fx.diskBytes) / float64(fx.records*int(sensors.NumMetrics))
	o.reads(lat)
	if tr == nil {
		return o, nil
	}

	// Per-layer probes: the same scan one layer at a time, from the store
	// outwards. Each is a child of the root so the trace file shows it.
	layers := tr.begin(nil, "bench.layer_probes")
	defer layers.end()
	const n = 3
	l := o.layer
	l["replay_records_per_s"] = float64(fx.records) / wall
	l["tsdb.scan_chunk_s"], err = timeN(layers, "tsdb.scan_chunk", n, func() error {
		return fx.db.EachChunkMergedCtx(ctx, 0, func(*envdb.Chunk) bool { return true })
	})
	if err != nil {
		return o, err
	}
	l["analysis.replay_local_s"], _ = timeN(layers, "analysis.replay_local", n, func() error {
		analysis.CollectFromStoreCtx(ctx, fx.db, analysis.CollectOptions{})
		return nil
	})
	var scan capturedReq
	for _, r := range capture.reqs {
		if strings.Contains(r.url, "/v1/scan") {
			scan = r
		}
	}
	var wire int64
	l["telemetrynet.handler_scan_s"], err = timeN(layers, "telemetrynet.handler_scan", n, func() error {
		status, size, _, err := scan.serve(fx.srv.handler)
		if err == nil && status != 200 {
			err = fmt.Errorf("handler-only scan answered %d", status)
		}
		wire = size
		return err
	})
	if err != nil {
		return o, err
	}
	l["telemetrynet.scan_wire_bytes"] = float64(wire)
	l["telemetrynet.wire_bytes_per_record"] = float64(wire) / float64(fx.records)
	l["telemetrynet.client_scan_s"], err = timeN(layers, "telemetrynet.client_scan", n, func() error {
		_, err := drain(ctx, client)
		return err
	})
	if err != nil {
		return o, err
	}
	l["telemetrynet.socket_decode_s"] = l["telemetrynet.client_scan_s"] - l["telemetrynet.handler_scan_s"]
	l["analysis.replay_remote_s"] = tr.medianSec("analysis.replay_remote")
	l["telemetrynet.pushdown_s"] = tr.medianSec("telemetrynet.pushdown")
	l["telemetrynet.pushdown_requests"] = float64(perRep - 2) // all but Info and the scan
	l["analysis.remote_over_local"] = l["analysis.replay_remote_s"] / l["analysis.replay_local_s"]

	// The same pass untraced prices the tracing.
	plain, err := timeN(nil, "", n, func() error {
		_, err := remoteAnalysis(ctx, client, nil)
		return err
	})
	if err != nil {
		return o, err
	}
	l["bench.trace_overhead_pct"] = (median(walls)/plain - 1) * 100
	l["bench.selftime_coverage"] = layerCoverage(tr.spans)
	return o, nil
}
