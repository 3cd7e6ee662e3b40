// Command miradispatch runs the campaign dispatcher: a crash-safe queue of
// simulation job specs served over the claim/heartbeat/complete protocol,
// plus a thin client mode for submitting specs and watching a sweep.
//
// Serve a queue (the durable state lives under -data and survives restarts,
// with in-flight jobs demoted back to pending):
//
//	miradispatch -data /var/lib/mira/campaign -listen 127.0.0.1:9090 -lease 30s
//
// Submit plain-JSON job specs and watch the sweep from another terminal:
//
//	miradispatch -url http://127.0.0.1:9090 -submit baseline.json,hot.json
//	miradispatch -url http://127.0.0.1:9090 -status
//	miradispatch -url http://127.0.0.1:9090 -results
//
// Workers are `mirasim -worker <url>`; the comparison table is
// `miraanalyze -campaign <url>`.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"mira/internal/campaign"
	"mira/internal/cli"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("miradispatch", stderr)
	var (
		dataDir     = c.Flags.String("data", "", "queue directory for durable job files (serve mode)")
		listen      = c.Flags.String("listen", "", "serve the campaign API (and /metrics, /healthz, pprof) on this address")
		lease       = c.Flags.Duration("lease", 30*time.Second, "claim lease; a worker silent this long forfeits its job")
		maxAttempts = c.Flags.Int("max-attempts", 3, "worker-reported failures before a job parks as failed")
		url         = c.Flags.String("url", "", "dispatcher base URL (client modes)")
		submit      = c.Flags.String("submit", "", "comma-separated JSON job-spec files to enqueue (requires -url)")
		status      = c.Flags.Bool("status", false, "print every job's state (requires -url)")
		results     = c.Flags.Bool("results", false, "print completed jobs' results as JSON (requires -url)")
	)
	return c.Run(args, func() error {
		switch {
		case *url != "":
			if *dataDir != "" || *listen != "" {
				return errors.New("-url is a client mode; it does not combine with -data/-listen")
			}
			return runClient(stdout, *url, *submit, *status, *results)
		case *dataDir != "" && *listen != "":
			return serve(c, *dataDir, *listen, *lease, *maxAttempts)
		default:
			return errors.New("need either -data and -listen (serve) or -url (client); see -h")
		}
	})
}

// serve opens (or recovers) the durable queue and mounts the dispatcher
// endpoints alongside the obs surface until SIGINT/SIGTERM.
func serve(c *cli.Cmd, dataDir, listen string, lease time.Duration, maxAttempts int) error {
	q, err := campaign.OpenQueue(dataDir, campaign.QueueOptions{Lease: lease, MaxAttempts: maxAttempts})
	if err != nil {
		return fmt.Errorf("open queue %s: %w", dataDir, err)
	}
	srv, err := c.Serve(listen, campaign.NewDispatcher(q, c.Log).Mount)
	if err != nil {
		return err
	}
	states := map[string]int{}
	for _, j := range q.Status() {
		states[j.State]++
	}
	pending, _ := q.Depths()
	c.Log.Infof("queue %s recovered: %d pending, %d done, %d failed", dataDir, pending, states[campaign.StateDone], states[campaign.StateFailed])
	c.Log.Infof("campaign dispatcher on %s", srv.Addr())
	return c.ServeUntilSignal(srv, nil)
}

// runClient executes the requested client actions in submit → status →
// results order so one invocation can both enqueue and inspect.
func runClient(stdout io.Writer, url, submit string, status, results bool) error {
	if submit == "" && !status && !results {
		return errors.New("-url needs at least one of -submit, -status, -results")
	}
	ctx := context.Background()
	c := campaign.NewClient(url, http.DefaultClient)

	if submit != "" {
		for _, path := range strings.Split(submit, ",") {
			spec, err := readSpecFile(path)
			if err != nil {
				return err
			}
			id, err := c.Submit(ctx, spec)
			if err != nil {
				return fmt.Errorf("submit %s: %w", path, err)
			}
			fmt.Fprintf(stdout, "job %d submitted: %s (seed %d, %s..%s)\n", id, spec.Name, spec.Seed, spec.Start, spec.End)
		}
	}
	if status {
		jobs, err := c.Status(ctx)
		if err != nil {
			return fmt.Errorf("status: %w", err)
		}
		fmt.Fprintf(stdout, "%-5s %-20s %-8s %-8s %-20s %s\n", "job", "name", "state", "attempt", "worker", "error")
		for _, j := range jobs {
			worker := "-"
			if j.Worker != 0 {
				worker = fmt.Sprint(j.Worker)
			}
			fmt.Fprintf(stdout, "%-5d %-20s %-8s %-8d %-20s %s\n", j.ID, j.Name, j.State, j.Attempt, worker, j.Error)
		}
	}
	if results {
		res, err := c.Results(ctx)
		if err != nil {
			return fmt.Errorf("results: %w", err)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fmt.Errorf("encode results: %w", err)
		}
	}
	return nil
}

// readSpecFile loads one plain-JSON JobSpec. Unknown fields and anything
// after the object are rejected, so a typoed knob or a second pasted spec
// fails loudly instead of silently running the default.
func readSpecFile(path string) (campaign.JobSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return campaign.JobSpec{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var spec campaign.JobSpec
	if err := dec.Decode(&spec); err != nil {
		return campaign.JobSpec{}, fmt.Errorf("spec %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return campaign.JobSpec{}, fmt.Errorf("spec %s: trailing data after the job object", path)
	}
	if spec.Version == 0 {
		spec.Version = campaign.SpecVersion
	}
	if err := spec.Validate(); err != nil {
		return campaign.JobSpec{}, fmt.Errorf("spec %s: %w", path, err)
	}
	return spec, nil
}
