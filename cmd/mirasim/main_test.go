package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runMirasim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestRunRejects covers the exit-code convention and every argument check
// that must fire before anything is simulated.
func TestRunRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"help", []string{"-h"}, 0, "-worker"},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"no halls", []string{"-halls", "0"}, 1, "bad -halls/-racks"},
		{"too many racks", []string{"-racks", "49"}, 1, "bad -halls/-racks"},
		{"bad start", []string{"-start", "2014-13-01"}, 1, "bad -start"},
		{"bad end", []string{"-end", "tomorrow"}, 1, "bad -end"},
		{"push with data", []string{"-push", "http://127.0.0.1:1", "-data", t.TempDir()}, 1, "-push streams to a remote store"},
		{"worker with ras", []string{"-worker", "http://127.0.0.1:1", "-ras", "x.log"}, 1, "-worker runs dispatcher-provided job specs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runMirasim(t, tc.args...)
			if code != tc.code || !strings.Contains(stderr, tc.stderr) {
				t.Fatalf("exit %d, want %d; stderr %q, want it to contain %q", code, tc.code, stderr, tc.stderr)
			}
			if stdout != "" {
				t.Errorf("rejected run printed to stdout:\n%s", stdout)
			}
		})
	}
}

// TestRunReport checks that -report is written at exit as a RunReport.
func TestRunReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	code, stdout, stderr := runMirasim(t, "-start", "2014-03-05", "-end", "2014-03-06", "-report", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "simulated 2014-03-05 .. 2014-03-06") {
		t.Errorf("stdout does not start with the run summary:\n%s", stdout)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema   string             `json:"schema"`
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if rep.Schema != "mira-run-report/v1" || len(rep.Counters) == 0 {
		t.Errorf("report schema %q with %d counters", rep.Schema, len(rep.Counters))
	}
}

// TestRunRASWriteError checks that a failure log that cannot be written
// fails the run instead of being reported as written.
func TestRunRASWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	// This week logs two deduplicated failures, so -ras has lines to write.
	code, stdout, stderr := runMirasim(t, "-start", "2014-03-05", "-end", "2014-03-12", "-ras", "/dev/full")
	if code != 1 || !strings.Contains(stderr, "no space left on device") {
		t.Fatalf("exit %d, want 1 with a write error; stderr:\n%s", code, stderr)
	}
	if strings.Contains(stdout, "failure log written") {
		t.Errorf("a failed -ras write was reported as written:\n%s", stdout)
	}
}
