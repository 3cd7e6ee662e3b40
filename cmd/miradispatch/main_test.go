package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const spec = `{"name": "sweep1", "seed": 42, "start": "2014-03-01", "end": "2014-06-01"}`

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadSpecFile(t *testing.T) {
	for _, tc := range []struct {
		name, body, err string
	}{
		{"one object", spec + "\n", ""},
		{"trailing object", spec + `{"bogus":1}`, "trailing data"},
		{"trailing garbage", spec + " ]", "trailing data"},
		{"unknown field", `{"name": "x", "bogus": 1}`, "unknown field"},
		{"invalid spec", `{"name": "x", "start": "2014-03-01", "end": "2014-02-01"}`, "empty window"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := readSpecFile(writeSpec(t, tc.body))
			if tc.err == "" {
				if err != nil || s.Name != "sweep1" {
					t.Fatalf("spec %+v, err %v", s, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("err %v, want it to mention %q", err, tc.err)
			}
		})
	}
}

// TestRunRejects covers the exit-code convention and the mode checks; none
// of these cases reaches the network.
func TestRunRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"help", []string{"-h"}, 0, "-max-attempts"},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"no mode", nil, 1, "need either -data and -listen"},
		{"client with data", []string{"-url", "http://127.0.0.1:1", "-data", t.TempDir()}, 1, "-url is a client mode"},
		{"client without action", []string{"-url", "http://127.0.0.1:1"}, 1, "-url needs at least one of"},
		{"trailing spec data", []string{"-url", "http://127.0.0.1:1", "-submit", writeSpec(t, spec+spec)}, 1, "trailing data"},
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
