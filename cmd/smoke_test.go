// Package cmd holds the end-to-end smoke tests of the commands. They build
// mirasim, miraanalyze, miramon and miradispatch once and drive them as
// processes, so SIGTERM and SIGKILL are real signals: the persistence round
// trip (warm segments against the CSV path, 1 against 8 scan workers,
// retention compaction), the network round trip with a graceful shutdown,
// a two-hall fleet, a campaign sweep that survives a killed worker and a
// restarted dispatcher, and corrupt cold and raw segments.
//
// Run them alone with `go test -count=1 -run '^TestSmoke' ./cmd/...`
// (make smoke).
package cmd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// smoke is one smoke run: the built commands and the data directory the
// sections share.
type smoke struct {
	t    *testing.T
	bin  string
	data string
}

// run runs a command to completion and returns its stdout; a non-zero
// exit fails the test with the command's stderr.
func (s *smoke) run(name string, args ...string) string {
	s.t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(s.bin, name), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		s.t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// fail runs a command that must exit non-zero and returns its combined
// output.
func (s *smoke) fail(name string, args ...string) string {
	s.t.Helper()
	out, err := exec.Command(filepath.Join(s.bin, name), args...).CombinedOutput()
	if err == nil {
		s.t.Fatalf("%s %s succeeded, want a failure:\n%s", name, strings.Join(args, " "), out)
	}
	return string(out)
}

// proc is a command running in the background with its stderr in a file.
type proc struct {
	s    *smoke
	cmd  *exec.Cmd
	log  string
	done chan error
}

// start starts a background command; the test's cleanup kills it if it
// is still running.
func (s *smoke) start(name string, args ...string) *proc {
	s.t.Helper()
	log, err := os.CreateTemp(s.data, name+"-*.log")
	if err != nil {
		s.t.Fatal(err)
	}
	defer log.Close()
	cmd := exec.Command(filepath.Join(s.bin, name), args...)
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		s.t.Fatal(err)
	}
	p := &proc{s: s, cmd: cmd, log: log.Name(), done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	s.t.Cleanup(func() {
		cmd.Process.Kill()
		<-p.done
	})
	return p
}

func (p *proc) stderr() string {
	b, _ := os.ReadFile(p.log)
	return string(b)
}

// waitFor polls the process's stderr until a line contains marker and
// returns the rest of that line after the marker.
func (p *proc) waitFor(marker string) string {
	p.s.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(p.stderr(), "\n") {
			if _, rest, ok := strings.Cut(line, marker); ok {
				return rest
			}
		}
		select {
		case err := <-p.done:
			p.done <- err
			p.s.t.Fatalf("%s exited (%v) before logging %q:\n%s", p.cmd.Path, err, marker, p.stderr())
		case <-time.After(20 * time.Millisecond):
		}
	}
	p.s.t.Fatalf("%s never logged %q:\n%s", p.cmd.Path, marker, p.stderr())
	return ""
}

// wait waits for the process to exit and fails the test on a non-zero
// status.
func (p *proc) wait() {
	p.s.t.Helper()
	select {
	case err := <-p.done:
		p.done <- err
		if err != nil {
			p.s.t.Fatalf("%s: %v\n%s", p.cmd.Path, err, p.stderr())
		}
	case <-time.After(2 * time.Minute):
		p.s.t.Fatalf("%s did not exit:\n%s", p.cmd.Path, p.stderr())
	}
}

// terminate sends SIGTERM once the process has logged that it catches it,
// and requires a clean, graceful exit.
func (p *proc) terminate() {
	p.s.t.Helper()
	p.waitFor("SIGINT/SIGTERM for graceful shutdown")
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.s.t.Fatal(err)
	}
	p.wait()
	if !strings.Contains(p.stderr(), "shutdown complete") {
		p.s.t.Fatalf("%s did not log a graceful shutdown:\n%s", p.cmd.Path, p.stderr())
	}
}

// figures drops the first line of an analysis, the provenance line that
// differs between paths ("warm start: ...", "loaded ...", "remote store ...").
func figures(out string) string {
	_, figs, _ := strings.Cut(out, "\n")
	return figs
}

func equal(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Fatalf("%s differ:\n--- got\n%s\n--- want\n%s", what, got, want)
	}
}

// loaded reads the record count of a "warm start: loaded N ..." line.
func loaded(t *testing.T, out string) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscanf(out, "warm start: loaded %d ", &n); err != nil {
		t.Fatalf("no warm start line: %v\n%s", err, out)
	}
	return n
}

// truncate cuts the first file under dir matching pattern to size(n).
func truncate(t *testing.T, dir, pattern string, size func(int64) int64) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(files) == 0 {
		t.Fatalf("no %s under %s (%v)", pattern, dir, err)
	}
	st, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], size(st.Size())); err != nil {
		t.Fatal(err)
	}
}

// The windows sit mid-month with margin on both sides: the CSV path carries
// UTC timestamps while segments keep the simulation zone, so a window
// touching a month boundary would bucket differently, not incorrectly.
func TestSmoke(t *testing.T) {
	s := &smoke{t: t, bin: t.TempDir(), data: t.TempDir()}
	build := exec.Command("go", "build", "-o", s.bin, "./mirasim", "./miraanalyze", "./miramon", "./miradispatch")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	seg := filepath.Join(s.data, "seg")
	cold := filepath.Join(s.data, "cold")
	var warm string

	steps := []struct {
		name string
		run  func(s *smoke)
	}{
		{"warm_vs_csv", func(s *smoke) {
			csv := filepath.Join(s.data, "telemetry.csv")
			s.run("mirasim", "-start", "2014-03-05", "-end", "2014-03-12", "-data", seg, "-telemetry", csv)
			warm = s.run("miraanalyze", "-data", seg)
			if !strings.HasPrefix(warm, "warm start:") {
				s.t.Fatalf("miraanalyze -data did not warm-start:\n%s", warm)
			}
			equal(s.t, "warm segment figures and CSV figures", figures(s.run("miraanalyze", "-from", csv)), figures(warm))
		}},
		// The parallel shard fan-out is a pure performance change.
		{"scan_workers", func(s *smoke) {
			one := s.run("miraanalyze", "-data", seg, "-scan-workers", "1")
			equal(s.t, "figures at -scan-workers 8 and 1", s.run("miraanalyze", "-data", seg, "-scan-workers", "8"), one)
			equal(s.t, "figures at -scan-workers 1 and the default", one, warm)
		}},
		// Retention folds everything but the newest day into 1-hour windows
		// on disk. The Fig. 7/9 pushdown aggregates exactly across both
		// tiers, so it must not change; the replay (Fig. 3) still runs over
		// the hot window.
		{"retention_compaction", func(s *smoke) {
			s.run("mirasim", "-start", "2014-03-05", "-end", "2014-03-12", "-partition", "24h", "-data", cold)
			fig7 := s.run("miraanalyze", "-data", cold, "-figure", "7")
			fig9 := s.run("miraanalyze", "-data", cold, "-figure", "9")
			compact := s.run("miraanalyze", "-data", cold, "-retention", "24h", "-figure", "7")
			if !regexp.MustCompile(`compacted [0-9]+ raw records into [0-9]+ downsampled windows`).MatchString(compact) {
				s.t.Fatalf("miraanalyze -retention reported no compaction:\n%s", compact)
			}
			if files, _ := filepath.Glob(filepath.Join(cold, "*.cold.seg")); len(files) == 0 {
				s.t.Fatal("compaction left no .cold.seg file")
			}
			equal(s.t, "Fig. 7 after and before compaction", figures(s.run("miraanalyze", "-data", cold, "-figure", "7")), figures(fig7))
			equal(s.t, "Fig. 9 after and before compaction", figures(s.run("miraanalyze", "-data", cold, "-figure", "9")), figures(fig9))
			s.run("miraanalyze", "-data", cold, "-figure", "3")
		}},
		// Serve the warm store: remote figures equal the local warm replay,
		// a pushed day lands in the live store, and SIGTERM flushes it.
		{"network_push_sigterm", func(s *smoke) {
			report := filepath.Join(s.data, "serve-report.json")
			mon := s.start("miramon", "-serve", "-listen", "127.0.0.1:0", "-data", seg, "-report", report)
			url := "http://" + mon.waitFor("telemetry API on ")
			// A serving monitor leaves its report before the signal, too.
			mon.waitFor("run report written to ")
			if b, err := os.ReadFile(report); err != nil || !json.Valid(b) {
				s.t.Fatalf("serving miramon wrote no valid -report (%v):\n%s", err, b)
			}
			equal(s.t, "remote and local warm figures", figures(s.run("miraanalyze", "-remote", url)), figures(warm))
			push := s.run("mirasim", "-start", "2014-03-12", "-end", "2014-03-13", "-push", url)
			if !regexp.MustCompile(`telemetry pushed: [1-9][0-9]* records`).MatchString(push) {
				s.t.Fatalf("mirasim -push reported no pushed telemetry:\n%s", push)
			}
			mon.terminate()
			if before, after := loaded(s.t, warm), loaded(s.t, s.run("miraanalyze", "-data", seg, "-figure", "7")); after <= before {
				s.t.Fatalf("graceful shutdown did not persist the pushed records (%d -> %d)", before, after)
			}
		}},
		// The same two-hall window, simulated into a local fleet store and
		// pushed into a fleet-sized server, analyzes identically hall by
		// hall, and so does its CSV export.
		{"fleet", func(s *smoke) {
			local := filepath.Join(s.data, "fleet-local")
			csv := filepath.Join(s.data, "fleet.csv")
			window := []string{"-halls", "2", "-start", "2014-03-05", "-end", "2014-03-07"}
			s.run("mirasim", append(window, "-data", local, "-telemetry", csv)...)
			mon := s.start("miramon", "-serve", "-listen", "127.0.0.1:0", "-halls", "2", "-data", filepath.Join(s.data, "fleet-remote"))
			url := "http://" + mon.waitFor("telemetry API on ")
			push := s.run("mirasim", append(window, "-push", url)...)
			if !regexp.MustCompile(`telemetry pushed: [1-9][0-9]* records`).MatchString(push) {
				s.t.Fatalf("fleet mirasim -push reported no pushed telemetry:\n%s", push)
			}
			for _, hall := range []string{"0", "1"} {
				want := figures(s.run("miraanalyze", "-data", local, "-halls", "2", "-hall", hall))
				equal(s.t, "hall "+hall+" remote and local fleet figures", figures(s.run("miraanalyze", "-remote", url, "-hall", hall)), want)
				equal(s.t, "hall "+hall+" CSV and local fleet figures", figures(s.run("miraanalyze", "-from", csv, "-halls", "2", "-hall", hall)), want)
			}
			mon.terminate()
		}},
		// A 3-job sweep across workers completes every job exactly once
		// although one worker is SIGKILLed mid-job and the dispatcher is
		// restarted mid-sweep: the queue recovers from disk with the
		// in-flight job demoted back to pending.
		{"campaign_kill_restart", func(s *smoke) {
			queue := filepath.Join(s.data, "campaign")
			var specs []string
			for i, extra := range []string{"", `, "failure_scale": 3`, `, "weather_seed": 7`} {
				path := filepath.Join(s.data, fmt.Sprintf("sweep%d.json", i+1))
				spec := fmt.Sprintf(`{"name": "sweep%d", "seed": 42, "start": "2014-03-01", "end": "2014-06-01"%s}`, i+1, extra)
				if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
					s.t.Fatal(err)
				}
				specs = append(specs, path)
			}
			dispatch := []string{"-data", queue, "-listen", "127.0.0.1:0", "-lease", "2s"}
			disp := s.start("miradispatch", dispatch...)
			url := "http://" + disp.waitFor("campaign dispatcher on ")
			if n := strings.Count(s.run("miradispatch", "-url", url, "-submit", strings.Join(specs, ",")), "submitted"); n != 3 {
				s.t.Fatalf("%d jobs submitted, want 3", n)
			}

			// Worker A dies mid-job: no fail report, no graceful anything.
			a := s.start("mirasim", "-worker", url)
			a.waitFor("claimed job")
			if err := a.cmd.Process.Kill(); err != nil {
				s.t.Fatal(err)
			}
			<-a.done
			a.done <- nil

			// Leases live in memory only, so the restarted dispatcher
			// demotes the killed worker's job back to pending.
			disp.terminate()
			disp = s.start("miradispatch", dispatch...)
			url = "http://" + disp.waitFor("campaign dispatcher on ")
			if !strings.Contains(disp.stderr(), "recovered: 3 pending, 0 done, 0 failed") {
				s.t.Fatalf("restarted dispatcher did not demote the in-flight job:\n%s", disp.stderr())
			}

			workers := []*proc{s.start("mirasim", "-worker", url), s.start("mirasim", "-worker", url)}
			for _, w := range workers {
				w.wait()
				if !strings.Contains(w.stderr(), "queue drained") {
					s.t.Fatalf("worker did not exit on a drained queue:\n%s", w.stderr())
				}
			}
			if n := strings.Count(s.run("miradispatch", "-url", url, "-status"), " done "); n != 3 {
				s.t.Fatalf("%d jobs done after the sweep, want 3", n)
			}
			table := s.run("miraanalyze", "-campaign", url)
			for _, want := range []string{"3 jobs, 3 completed", "sweep1", "sweep2", "sweep3", "baseline: job 1 (sweep1)"} {
				if !strings.Contains(table, want) {
					s.t.Fatalf("comparison table lacks %q:\n%s", want, table)
				}
			}
			disp.terminate()
		}},
		{"cold_corruption", func(s *smoke) {
			truncate(s.t, cold, "*.cold.seg", func(n int64) int64 { return n - 7 })
			if out := s.fail("miraanalyze", "-data", cold); !strings.Contains(out, "corrupt segment") {
				s.t.Fatalf("cold corruption error is not descriptive:\n%s", out)
			}
		}},
		{"raw_corruption", func(s *smoke) {
			truncate(s.t, seg, "*.seg", func(n int64) int64 { return n / 2 })
			if out := s.fail("miraanalyze", "-data", seg); !strings.Contains(out, "corrupt segment") {
				s.t.Fatalf("corruption error is not descriptive:\n%s", out)
			}
		}},
	}
	// Later sections read what earlier ones wrote, so the first failure
	// stops the run.
	for _, step := range steps {
		if !t.Run(step.name, func(t *testing.T) { step.run(&smoke{t: t, bin: s.bin, data: s.data}) }) {
			return
		}
	}
}
