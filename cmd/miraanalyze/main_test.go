package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sim"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/tsdb"
)

// fixture simulates two days of the single machine and leaves the
// telemetry as a segment store and as a CSV export.
func fixture(t *testing.T) (seg, csv string) {
	t.Helper()
	dir := t.TempDir()
	seg, csv = filepath.Join(dir, "seg"), filepath.Join(dir, "t.csv")
	db := tsdb.NewStore()
	start := time.Date(2014, 3, 5, 0, 0, 0, 0, timeutil.Chicago)
	_, err := sim.RunFleet(topology.Fleet{Halls: 1, Racks: topology.NumRacks}, db, func(int) (sim.Config, error) {
		return sim.Config{Seed: 42, Start: start, End: start.AddDate(0, 0, 2)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(seg); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(csv)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := envdb.WriteCSV(context.Background(), f, db); err != nil {
		t.Fatal(err)
	}
	return seg, csv
}

// corruptCopy copies the segment store and truncates one segment file
// mid-payload.
func corruptCopy(t *testing.T, seg string) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(seg)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		b, err := os.ReadFile(filepath.Join(seg, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			b = b[:len(b)/2]
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRunRejects covers the exit-code convention and every argument or
// input check: each must fail before anything is simulated.
func TestRunRejects(t *testing.T) {
	seg, csv := fixture(t)
	corrupt := corruptCopy(t, seg)
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"help", []string{"-h"}, 0, "-campaign"},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"bad flag value", []string{"-halls", "two"}, 2, "invalid value"},
		{"bad figure", []string{"-figure", "16"}, 1, `bad -figure "16"`},
		{"no halls", []string{"-halls", "0"}, 1, "bad -halls/-racks"},
		{"too many racks", []string{"-data", seg, "-racks", "49"}, 1, "bad -halls/-racks"},
		{"negative hall", []string{"-hall", "-1"}, 1, "bad -hall -1"},
		{"hall outside the data fleet", []string{"-data", seg, "-hall", "1"}, 1, "-hall 1 outside the 1-hall fleet"},
		{"hall outside the CSV fleet", []string{"-from", csv, "-hall", "1"}, 1, "-hall 1 outside the 1-hall fleet"},
		{"corrupt data", []string{"-data", corrupt}, 1, "corrupt segment"},
		{"missing CSV", []string{"-from", filepath.Join(t.TempDir(), "none.csv")}, 1, "no such file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("exit %d, want %d; stderr %q, want it to contain %q", code, tc.code, stderr.String(), tc.stderr)
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected run printed to stdout:\n%s", stdout.String())
			}
		})
	}
}

// TestRunOfflinePaths checks that the -data and -from paths print the same
// figures, and that -report is written at exit as a RunReport.
func TestRunOfflinePaths(t *testing.T) {
	seg, csv := fixture(t)
	report := filepath.Join(t.TempDir(), "report.json")
	figures := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		_, figs, _ := strings.Cut(stdout.String(), "\n")
		return figs
	}
	warm := figures("-data", seg, "-report", report)
	if from := figures("-from", csv); from != warm {
		t.Errorf("-from figures differ from -data:\n%s\nvs\n%s", from, warm)
	}
	if !strings.Contains(warm, "Fig. 9 — Rack ambient (offline)") {
		t.Errorf("-data printed no Fig. 9:\n%s", warm)
	}
	b, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(b, &rep); err != nil || rep.Schema != "mira-run-report/v1" {
		t.Errorf("report schema %q, err %v", rep.Schema, err)
	}
}
