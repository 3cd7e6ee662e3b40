// Package cli is the bootstrap the mira commands share: a flag set with
// -log-format (and -report), the exit codes, the fleet and window flags,
// the -listen surface, the SIGINT/SIGTERM shutdown and the retention
// compaction step. A command's run(args, stdout, stderr) builds a Cmd,
// declares its flags on Cmd.Flags and hands Run its body, so main is
// os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) and tests call run.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mira/internal/obs"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/tsdb"
)

// Cmd is one command invocation: its flags and, once parsed, its logger.
type Cmd struct {
	Flags *flag.FlagSet
	Log   *obs.Logger

	name      string
	stderr    io.Writer
	logFormat *string
	report    *string
}

// New starts the named command's flag set, which reports to stderr.
func New(name string, stderr io.Writer) *Cmd {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &Cmd{
		Flags:     fs,
		name:      name,
		stderr:    stderr,
		logFormat: fs.String("log-format", "text", "diagnostic log format: text or json"),
	}
}

// WithReport declares -report, the RunReport file Run writes after a
// successful body.
func (c *Cmd) WithReport() *Cmd {
	c.report = c.Flags.String("report", "", "write a RunReport metric snapshot (JSON) to this file at exit")
	return c
}

// Fleet declares -halls and -racks and returns their fleet check.
func (c *Cmd) Fleet(hallsUsage string) func() (topology.Fleet, error) {
	halls := c.Flags.Int("halls", 1, hallsUsage)
	racks := c.Flags.Int("racks", topology.NumRacks, "racks per hall (1..48)")
	return func() (topology.Fleet, error) {
		fleet, err := topology.NewFleet(*halls, *racks)
		if err != nil {
			return fleet, fmt.Errorf("bad -halls/-racks: %w", err)
		}
		return fleet, nil
	}
}

// Run parses args, runs body and writes the -report. It returns the exit
// code: 0 on success and for -h, 2 when the flags do not parse, 1 (with
// the error logged) when body or the report fails.
func (c *Cmd) Run(args []string, body func() error) int {
	if err := c.Flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	c.Log = obs.NewLogger(c.stderr, *c.logFormat, c.name)
	err := body()
	if err == nil {
		err = c.writeReport()
	}
	if err != nil {
		c.Log.Errorf("%v", err)
		return 1
	}
	return 0
}

// writeReport writes the -report file, if one was asked for.
func (c *Cmd) writeReport() error {
	if c.report == nil || *c.report == "" {
		return nil
	}
	if err := obs.WriteRunReport(*c.report); err != nil {
		return fmt.Errorf("-report: %w", err)
	}
	c.Log.Infof("run report written to %s", *c.report)
	return nil
}

// Serve starts the observability surface, plus mount's routes, on addr;
// an empty addr serves nothing and returns a nil server.
func (c *Cmd) Serve(addr string, mount func(*http.ServeMux)) (*obs.HTTPServer, error) {
	if addr == "" {
		return nil, nil
	}
	srv, err := obs.ServeWith(addr, mount)
	if err != nil {
		return nil, fmt.Errorf("-listen %s: %w", addr, err)
	}
	c.Log.Infof("serving /metrics, /healthz, and /debug/pprof on %s", srv.Addr())
	return srv, nil
}

// Signalled returns a context the first SIGINT or SIGTERM cancels: the one
// shutdown trigger of every long-running mode.
func Signalled() (ctx context.Context, stop context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// ServeUntilSignal writes the -report (Run rewrites it after a clean
// shutdown, so a killed process still leaves one), keeps srv up until
// SIGINT or SIGTERM, then drains its in-flight requests (15 s at most) and
// runs flush, if any. The signals are caught before the "serving on" line
// is logged, so a supervisor that waits for that line may signal at once.
func (c *Cmd) ServeUntilSignal(srv *obs.HTTPServer, flush func() error) error {
	if err := c.writeReport(); err != nil {
		return err
	}
	ctx, stop := Signalled()
	defer stop()
	c.Log.Infof("serving on %s (SIGINT/SIGTERM for graceful shutdown)", srv.Addr())
	<-ctx.Done()
	c.Log.Infof("signal received: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		c.Log.Errorf("http shutdown: %v", err)
	}
	if flush != nil {
		if err := flush(); err != nil {
			return err
		}
	}
	c.Log.Infof("shutdown complete")
	return nil
}

// Window parses the -start and -end days in the simulation's time zone.
func Window(start, end string) (from, to time.Time, err error) {
	if from, err = time.ParseInLocation("2006-01-02", start, timeutil.Chicago); err != nil {
		return from, to, fmt.Errorf("bad -start: %w", err)
	}
	if to, err = time.ParseInLocation("2006-01-02", end, timeutil.Chicago); err != nil {
		return from, to, fmt.Errorf("bad -end: %w", err)
	}
	return from, to, nil
}

// Compact folds what lies past db's retention window into 1-hour
// downsampled windows under dir and reports the fold on w; without a
// retention window it does nothing.
func Compact(w io.Writer, db *tsdb.Store, dir string) error {
	cs, err := db.Compact(dir)
	if err != nil {
		return fmt.Errorf("retention compaction: %w", err)
	}
	if cs.Windows > 0 {
		fmt.Fprintf(w, "compacted %d raw records into %d downsampled windows (%.1fx on-disk reduction for the compacted range)\n",
			cs.SourceRecords, cs.Windows, cs.Reduction())
	}
	return nil
}
