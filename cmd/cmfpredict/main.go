// Command cmfpredict trains and evaluates the coolant-monitor-failure
// predictor (the paper's Fig. 13), with optional Bayesian-optimization
// architecture search and the threshold/logistic baselines.
//
// Usage:
//
//	cmfpredict [-seed N] [-start 2016-01-01] [-end 2017-01-01]
//	           [-tune] [-baselines] [-location] [-mitigation]
//	           [-report report.json] [-log-format text|json]
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"mira"
	"mira/internal/cli"
	"mira/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("cmfpredict", stderr).WithReport()
	var (
		seed       = c.Flags.Int64("seed", 77, "simulation and training seed")
		startStr   = c.Flags.String("start", "2016-01-01", "telemetry window start (failure-dense 2016 by default)")
		endStr     = c.Flags.String("end", "2017-01-01", "telemetry window end")
		tune       = c.Flags.Bool("tune", false, "run Bayesian-optimization architecture search first")
		baselines  = c.Flags.Bool("baselines", false, "also evaluate threshold and logistic baselines")
		location   = c.Flags.Bool("location", false, "evaluate the system-level location predictor")
		mitigation = c.Flags.Bool("mitigation", false, "price prediction-triggered checkpointing")
	)
	return c.Run(args, func() error {
		start, end, err := cli.Window(*startStr, *endStr)
		if err != nil {
			return err
		}

		fmt.Fprintf(stdout, "simulating %s .. %s at the coolant monitor's 300 s cadence...\n", *startStr, *endStr)
		studyCfg := mira.StudyConfig{Seed: *seed, Start: start, End: end}
		if *location {
			studyCfg.LocationFrameEvery = time.Hour
		}
		study, err := mira.RunStudy(studyCfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "captured %d pre-CMF windows and %d quiet windows\n\n",
			len(study.PositiveWindows()), len(study.NegativeWindows()))

		cfg := mira.PredictorConfig{Seed: *seed}
		if *tune {
			ds, err := study.BuildPredictorDataset(time.Hour, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "running Bayesian-optimization architecture search...")
			hidden, err := core.TuneArchitecture(ds, core.Config{Seed: *seed, Epochs: 25}, 8)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "selected hidden layers: %v (paper default: [12 12 6])\n\n", hidden)
			cfg.Hidden = hidden
		}

		points, err := study.Fig13Predictor(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "5-fold cross-validated performance vs lead time (Fig. 13):")
		fmt.Fprintln(stdout, "lead    accuracy  precision  recall   F1      FPR")
		for _, pt := range points {
			c := pt.Confusion
			fmt.Fprintf(stdout, "%-6s  %8.3f  %9.3f  %6.3f  %6.3f  %5.3f\n",
				pt.Lead, c.Accuracy(), c.Precision(), c.Recall(), c.F1(), c.FalsePositiveRate())
		}
		fmt.Fprintln(stdout, "[paper: ~87% accuracy six hours out rising to ~97% at 30 minutes]")

		if *location || *mitigation {
			predictor, err := study.TrainPredictor(time.Hour, mira.PredictorConfig{Seed: *seed + 10})
			if err != nil {
				return err
			}
			if *location {
				rep, err := study.EvaluateLocation(predictor, 0.9)
				if err != nil {
					return err
				}
				fmt.Fprintln(stdout, "\nsystem-level *location prediction (paper: a stated improvement direction):")
				fmt.Fprintf(stdout, "  incidents evaluated: %d\n", rep.Evaluated)
				fmt.Fprintf(stdout, "  epicenter top-1 / top-3 accuracy: %.0f%% / %.0f%% (random: 2%% / 6%%)\n", rep.Top1*100, rep.Top3*100)
				fmt.Fprintf(stdout, "  mean epicenter rank: %.1f of 48 (random: 24.5)\n", rep.MeanEpicenterRank)
				fmt.Fprintf(stdout, "  machine-wide alarm precision: %.0f%% over %d alarm frames\n", rep.FrameAlarmPrecision*100, rep.AlarmFrames)
			}
			if *mitigation {
				rep, err := study.EvaluateMitigation(predictor, mira.MitigationConfig{})
				if err != nil {
					return err
				}
				fmt.Fprintln(stdout, "\nproactive *mitigation (paper §VI-B: checkpoint on warning):")
				fmt.Fprintf(stdout, "  incidents: %d; warned ≥30 min ahead: %.0f%%; mean warning: %v\n",
					len(rep.Incidents), rep.WarnedFraction*100, rep.MeanWarningLead.Round(time.Minute))
				fmt.Fprintf(stdout, "  lost compute (kilo-node-hours): none=%.0f periodic=%.0f predictive=%.0f (+%.1f checkpoint overhead)\n",
					rep.TotalLostNone, rep.TotalLostPeriodic, rep.TotalLostPredictive, rep.CheckpointOverheadHours)
				fmt.Fprintf(stdout, "  net savings vs periodic checkpointing: %.0f%%\n", rep.SavingsVsPeriodic()*100)
			}
		}

		if *baselines {
			fmt.Fprintln(stdout, "\nbaselines at a 2 h lead:")
			ds, err := study.BuildPredictorDataset(2*time.Hour, *seed+1)
			if err != nil {
				return err
			}
			nnConf, err := core.CrossValidate(ds, core.Config{Seed: *seed + 2}, 5)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  neural network (delta features): %v\n", nnConf)
			thr, err := core.FitThresholdBaseline(ds, 2)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  threshold monitor:                %v\n", thr.Evaluate(ds))
			logit, err := core.TrainLogisticBaseline(ds, core.Config{Seed: *seed + 3})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  logistic regression:              %v\n", logit.Evaluate(ds))

			lvl, err := core.BuildDataset(study.PositiveWindows(), study.NegativeWindows(),
				study.Step(), 4*time.Hour, core.LevelFeatures, *seed+4)
			if err == nil {
				lvlConf, err := core.CrossValidate(lvl, core.Config{Seed: *seed + 5}, 5)
				if err == nil {
					fmt.Fprintf(stdout, "  NN on level features (4 h lead): %v\n", lvlConf)
					fmt.Fprintln(stdout, "  [paper §VI-D: the change in metric values, not their level, carries the signal]")
				}
			}
		}

		return nil
	})
}
