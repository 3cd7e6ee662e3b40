package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mira/internal/obs"
	"mira/internal/tsdb"
)

// TestRunRejects covers the exit-code convention and the checks that must
// fail before anything is simulated or served.
func TestRunRejects(t *testing.T) {
	corrupt := t.TempDir()
	if err := os.WriteFile(filepath.Join(corrupt, "shard-00.seg"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"help", []string{"-h"}, 0, "-trace-sample"},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"serve without listen", []string{"-serve", "-data", t.TempDir()}, 1, "-serve requires both -listen and -data"},
		{"no halls", []string{"-halls", "0"}, 1, "bad -halls/-racks"},
		{"too many racks", []string{"-racks", "49"}, 1, "bad -halls/-racks"},
		// Without -listen nothing stays up to report the corruption on
		// /healthz, so the run fails.
		{"corrupt data", []string{"-data", corrupt}, 1, "corrupt segment"},
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

// TestCompactIntervalOff checks that a -compact-interval <= 0 turns the
// background compactor off instead of panicking in time.NewTicker.
func TestCompactIntervalOff(t *testing.T) {
	db := tsdb.NewStoreWith(tsdb.Options{Retention: time.Hour})
	for _, interval := range []time.Duration{0, -time.Minute} {
		var log bytes.Buffer
		startCompactor(obs.NewLogger(&log, "text", "miramon"), db, t.TempDir(), time.Hour, interval, "127.0.0.1:0")
		if log.Len() != 0 {
			t.Errorf("interval %v started a compactor: %s", interval, log.String())
		}
	}
}
