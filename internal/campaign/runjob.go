package campaign

import (
	"context"
	"fmt"
	"math"
	"time"

	"mira/internal/analysis"
	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/sim"
	"mira/internal/telemetrynet"
	"mira/internal/tsdb"
)

// RunJob executes one campaign job: it runs the spec's fleet through
// sim.RunFleet (hall h seeded spec.Seed+h, exactly as the mirasim CLI does,
// so campaign and CLI runs of the same spec agree), streams telemetry into a worker-local
// store — or the shared telemetrynet store when spec.Push is set — and
// distills the reliability and efficiency outcomes the sweep compares.
// Hall 0 additionally feeds a live analysis collector for the figure-level
// numbers, matching the CLI's "summaries cover hall 0" convention.
func RunJob(ctx context.Context, spec JobSpec) (RunResult, error) {
	if err := ctx.Err(); err != nil {
		return RunResult{}, err
	}
	if spec.Version == 0 {
		spec.Version = SpecVersion
	}
	if err := spec.Validate(); err != nil {
		return RunResult{}, err
	}
	ctx, span := obs.Span(ctx, "campaign.worker.run")
	defer span.End()
	span.SetAttr("spec", spec.Name)

	fleet := spec.Fleet()
	var sink envdb.DB
	var local *tsdb.Store
	var push *telemetrynet.Client
	if spec.Push != "" {
		push = telemetrynet.NewClient(spec.Push, telemetrynet.ClientOptions{Context: ctx})
		sink = push
	} else {
		retention := time.Duration(spec.RetentionHours) * time.Hour
		local = tsdb.NewStoreWith(tsdb.Options{Fleet: fleet, Retention: retention})
		sink = local
	}

	collector := analysis.NewCollector()
	hall0, err := sim.RunFleet(fleet, sink, spec.SimConfig, collector)
	if err != nil {
		return RunResult{}, fmt.Errorf("campaign: job %s: %w", spec.Name, err)
	}
	collector.Finalize()

	res := RunResult{
		CMFailures:    len(hall0.Log().DedupCMF()),
		Incidents:     len(hall0.Incidents()),
		NonCMFailures: len(hall0.Log().DedupNonCMF()),
	}
	stats := hall0.Scheduler().Stats()
	res.JobsCompleted = stats.Completed
	res.JobsKilled = stats.Killed

	if push != nil {
		if err := push.Flush(); err != nil {
			return RunResult{}, fmt.Errorf("campaign: job %s push: %w", spec.Name, err)
		}
		res.Records = push.Stats().PushedRecords
	} else {
		local.SealAll()
		res.Records = local.Len()
	}

	// Efficiency over the run's first calendar year, replaying the same
	// weather draw the simulators used.
	start, _, err := spec.Window()
	if err != nil {
		return RunResult{}, err
	}
	eff := collector.EfficiencyStudy(spec.EffectiveWeatherSeed(), start.Year())
	// Short windows leave whole seasons without data; those means come back
	// NaN, which neither JSON nor result comparison can carry — report 0.
	res.MeanPUE = finiteOrZero(eff.MeanPUE)
	res.WinterPUE = finiteOrZero(eff.WinterPUE)
	res.SummerPUE = finiteOrZero(eff.SummerPUE)
	res.CoolingEnergyKWh = finiteOrZero(eff.CoolingEnergyKWh)
	res.EconomizerSavingsKWh = finiteOrZero(eff.EconomizerSavingsKWh)
	res.OutletSpreadPct = finiteOrZero(collector.Fig7RackCoolant().OutletSpreadPct)
	return res, nil
}

func finiteOrZero(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
