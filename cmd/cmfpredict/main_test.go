package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejects covers the exit-code convention and the window checks,
// which must fail before anything is simulated.
func TestRunRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"help", []string{"-h"}, 0, "-mitigation"},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"bad start", []string{"-start", "2016-02-30"}, 1, "bad -start"},
		{"bad end", []string{"-end", "2017"}, 1, "bad -end"},
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
