package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"mira/internal/obs"
	"mira/internal/sensors"
)

// rung is one rate of the ladder: one or more open-loop segments. Its
// percentiles are over the whole rung, not its quietest window: a backlog
// that grows is the finding there, not noise.
type rung struct {
	rate       int
	res        loadResult // the segments' results, concatenated
	segments   [][]time.Duration
	p50, p99   float64 // ms, from the intended send time
	lateP99    float64 // ms, how late the generator sent
	achieved   float64 // requests/s actually sent
	meetsLimit bool    // no error, p99 within the limit, no growing backlog
}

// send adds one open-loop segment to the rung: reqs at the rung's rate over
// conns connections.
func (r *rung) send(db reader, reqs []request, conns int, sp *span) loadResult {
	res := openLoop(db, float64(r.rate), conns, fromList(reqs), sp, "telemetrynet.rt")
	r.segments = append(r.segments, res.latency)
	r.res.merge([]loadResult{res})
	r.res.latency = append(r.res.latency, res.latency...)
	r.res.late = append(r.res.late, res.late...)
	r.res.wall += res.wall
	return res
}

// summarize fills in the rung's figures once its segments are in.
func (r *rung) summarize(limitMs float64) {
	lat := sortedMs(r.res.latency)
	r.p50, _ = tailPercentile(lat, 0.50)
	r.p99, _ = tailPercentile(lat, 0.99)
	r.lateP99, _ = tailPercentile(sortedMs(r.res.late), 0.99)
	r.achieved = float64(r.res.sent) / r.res.wall.Seconds()
	r.meetsLimit = len(r.res.errs) == 0 && r.p99 <= limitMs && r.achieved >= 0.99*float64(r.rate)
}

// runDashboardRead is the dashboard_read workload.
func runDashboardRead(sz sizes, seed int64, budget time.Duration, scratch string, tr *tracer) (*outcome, error) {
	o := newOutcome()
	fx, setup, err := setupFixture(sz, seed, scratch)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	o.e2e["setup_s"] = setup

	conns := runtime.NumCPU()
	rt, err := newTransport(conns)
	if err != nil {
		return nil, err
	}
	defer rt.CloseIdleConnections()
	client := newClient(fx.srv.url, rt)

	// A round is one open-loop segment at R1 and then a few closed-loop
	// batches, each holding the mix in exact proportion, so both phases
	// sample the whole run; the best batch is the saturation figure.
	root := tr.begin(nil, "bench.dashboard_read")
	r1 := rung{rate: sz.Ladder[0]}
	var closedReqs []request
	var walls, rates, rps []float64
	repeatFor(budget, 1, func(round int) error {
		sp := root.child("bench.rung.r1")
		res := r1.send(client, dashboardSchedule(subSeed(seed, 2*round), sz.OpenSegment, fx.first, fx.last), conns, sp)
		sp.end()
		o.count(res, fx.db)
		closedReqs = dashboardSchedule(subSeed(seed, 2*round+1), sz.ClosedPerRound*sz.ClosedBatch, fx.first, fx.last)
		sp = root.child("bench.closed_loop")
		w, r, q := closedBatches(client, closedReqs, sz.ClosedBatch, conns, sp, fx.db, o)
		sp.end()
		walls, rates, rps = append(walls, w...), append(rates, r...), append(rps, q...)
		return nil
	})
	root.end()
	r1.summarize(sz.LatencyLimitMs)

	o.e2e["wall_s"] = best(walls, "lower")
	o.e2e["records_per_s"] = best(rates, "higher")
	o.e2e["disk_bytes_per_sample"] = float64(fx.diskBytes) / float64(fx.records*int(sensors.NumMetrics))
	p50, p95, p99 := quietest(r1.segments)
	o.e2e["read_p50_ms"], o.e2e["read_p95_ms"] = p50, p95
	if tr == nil {
		return o, nil
	}

	// The last round's closed loop again with no spans, straight away, prices
	// the tracing.
	plainWalls, _, _ := closedBatches(client, closedReqs, sz.ClosedBatch, conns, nil, nil, o)

	l := o.layer
	l["bench.trace_overhead_pct"] = (median(walls)/median(plainWalls) - 1) * 100
	l["dash_sat_rps"] = best(rps, "higher")
	l["dash_p50_ms"], l["dash_p99_ms"] = p50, p99

	// The rest of the ladder, a quarter of the seconds per rung: where the
	// limit breaks.
	layers := tr.begin(nil, "bench.layer_probes")
	defer layers.end()
	rungs := []rung{r1}
	for i, rate := range sz.Ladder[1:] {
		r := rung{rate: rate}
		sp := layers.child("bench.rung." + rungNames[i+1])
		// A rung past saturation may miss the limit; only a wrong or failed
		// response is a failed operation there.
		o.count(r.send(client, dashboardSchedule(subSeed(seed, -i-1), int(float64(rate)*budget.Seconds()/4), fx.first, fx.last), conns, sp), fx.db)
		sp.end()
		r.summarize(sz.LatencyLimitMs)
		rungs = append(rungs, r)
	}
	l["telemetrynet.max_ok_rps"] = 0
	for i, r := range rungs {
		name := rungNames[i]
		l["telemetrynet.p50_ms."+name] = r.p50
		l["telemetrynet.p99_ms."+name] = r.p99
		l["telemetrynet.achieved_rps."+name] = r.achieved
		l["bench.late_p99_ms."+name] = r.lateP99
		if r.meetsLimit {
			l["telemetrynet.max_ok_rps"] = float64(r.rate)
		}
	}

	if err := opProbes(closedReqs, fx, layers, o); err != nil {
		return o, err
	}
	l["obs.span_overhead_pct"] = obsSpanOverhead(client, closedReqs[:min(len(closedReqs), 2000)], o)

	l["bench.selftime_coverage"] = layerCoverage(tr.spans)
	return o, nil
}

// closedBatches sends reqs closed loop, batch requests at a time, and
// returns each batch's wall, records covered per second and requests per
// second.
func closedBatches(client reader, reqs []request, batch, conns int, sp *span, truth reader, o *outcome) (walls, rates, rps []float64) {
	for ; len(reqs) >= batch; reqs = reqs[batch:] {
		res := closedLoop(client, reqs[:batch], conns, sp, "telemetrynet.rt")
		o.count(res, truth)
		walls = append(walls, res.wall.Seconds())
		rates = append(rates, float64(res.records)/res.wall.Seconds())
		rps = append(rps, float64(res.sent)/res.wall.Seconds())
	}
	return walls, rates, rps
}

// opProbes measures each operation of the dashboard mix one layer at a
// time: the direct store call, the handler with no socket, and the round
// trip on one idle connection (the service time an open-loop latency adds
// queueing to).
func opProbes(reqs []request, fx *fixture, parent *span, o *outcome) error {
	rt, err := newTransport(1)
	if err != nil {
		return err
	}
	defer rt.CloseIdleConnections()
	capture := &captureTransport{inner: rt}
	client := newClient(fx.srv.url, capture)
	const perOp = 400
	for op, name := range opNames {
		var mine []request
		for _, r := range reqs {
			if r.Op == opKind(op) && len(mine) < perOp {
				mine = append(mine, r)
			}
		}
		if len(mine) == 0 {
			return fmt.Errorf("no %s request in the schedule", name)
		}
		sp := parent.child("bench.op_probe." + name)
		direct := closedLoop(fx.db, mine, 1, sp, "tsdb."+name)
		capture.reqs = capture.reqs[:0]
		wire := closedLoop(client, mine, 1, sp, "telemetrynet.rt_"+name)
		o.count(direct, nil)
		o.count(wire, fx.db)
		var handler []time.Duration
		var size int64
		for _, c := range capture.reqs {
			if !strings.Contains(c.url, "/v1/"+name) {
				continue
			}
			h := sp.child("telemetrynet.handler_" + name)
			status, n, d, err := c.serve(fx.srv.handler)
			h.end()
			if err == nil && status != 200 {
				err = fmt.Errorf("handler-only %s answered %d", name, status)
			}
			o.op(err)
			handler = append(handler, d)
			size += n
		}
		sp.end()
		o.layer["tsdb."+name+"_us"] = medianUs(direct.latency)
		o.layer["telemetrynet.handler_"+name+"_us"] = medianUs(handler)
		o.layer["telemetrynet.rt_"+name+"_us"] = medianUs(wire.latency)
		o.layer["telemetrynet.resp_bytes_"+name] = float64(size) / float64(max(len(handler), 1))
	}
	return nil
}

// obsSpanOverhead is what the program's own tracer costs a request at the
// default the cmds ship, against NoSample: the same requests on one
// connection in the order default, NoSample, NoSample, default, so drift
// cancels.
func obsSpanOverhead(client reader, reqs []request, o *outcome) float64 {
	var wall [2]float64
	for _, noSample := range []bool{false, true, true, false} {
		obs.ConfigureTracer(obs.TracerConfig{NoSample: noSample})
		res := closedLoop(client, reqs, 1, nil, "")
		o.count(res, nil)
		if noSample {
			wall[1] += res.wall.Seconds()
		} else {
			wall[0] += res.wall.Seconds()
		}
	}
	obs.ConfigureTracer(obs.TracerConfig{})
	return (wall[0]/wall[1] - 1) * 100
}

func medianUs(ds []time.Duration) float64 { return median(seconds(ds)) * 1e6 }
