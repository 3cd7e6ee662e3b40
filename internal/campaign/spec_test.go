package campaign

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"mira/internal/timeutil"
)

// testSpec returns a small valid sweep entry.
func testSpec(name string, seed int64) JobSpec {
	return JobSpec{
		Version:      SpecVersion,
		Name:         name,
		Seed:         seed,
		Start:        "2014-03-05",
		End:          "2014-03-08",
		FailureScale: 1.5,
	}
}

func TestJobSpecRoundTrip(t *testing.T) {
	in := testSpec("heatwave-a", 42)
	in.Halls = 2
	in.WeatherSeed = 99
	in.CascadeProb = 0.8
	in.BackfillBase = 0.4
	frame, err := EncodeJobSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeJobSpec(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
}

func TestJobSpecValidation(t *testing.T) {
	cases := []struct {
		mutate func(*JobSpec)
		want   string
	}{
		{func(s *JobSpec) { s.Name = "" }, "name"},
		{func(s *JobSpec) { s.Name = "bad name with spaces" }, "name"},
		{func(s *JobSpec) { s.Name = strings.Repeat("x", 65) }, "name"},
		{func(s *JobSpec) { s.Halls = 10000 }, "halls"},
		{func(s *JobSpec) { s.Racks = -1 }, "racks"},
		{func(s *JobSpec) { s.Start = "not-a-date" }, "start"},
		{func(s *JobSpec) { s.End = s.Start }, "empty window"},
		{func(s *JobSpec) { s.Start = "1900-01-01"; s.End = "2100-01-01" }, "cap"},
		{func(s *JobSpec) { s.StepSeconds = -5 }, "step_seconds"},
		{func(s *JobSpec) { s.FailureScale = -1 }, "failure_scale"},
		{func(s *JobSpec) { s.CascadeProb = 1.5 }, "cascade_prob"},
		{func(s *JobSpec) { s.BackfillBase = 2 }, "backfill_base"},
		{func(s *JobSpec) { s.QueueLimit = -1 }, "queue_limit"},
		{func(s *JobSpec) { s.Version = 99 }, "version"},
	}
	for i, tc := range cases {
		s := testSpec("ok", 1)
		tc.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Fatalf("case %d: invalid spec accepted: %+v", i, s)
		}
		if !errors.Is(err, ErrBadSpec) {
			t.Fatalf("case %d: error %v does not wrap ErrBadSpec", i, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("case %d: error %q does not mention %q", i, err, tc.want)
		}
	}
}

func TestJobSpecSimConfig(t *testing.T) {
	s := testSpec("cfg", 7)
	s.WeatherSeed = 1234
	s.CascadeProb = 0.9
	s.QueueLimit = 50
	cfg, err := s.SimConfig(2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 9 {
		t.Fatalf("hall 2 seed %d, want spec.Seed+2 = 9", cfg.Seed)
	}
	if cfg.WeatherSeed != 1234 {
		t.Fatalf("weather seed %d, want 1234", cfg.WeatherSeed)
	}
	if cfg.Failure.Seed != 11 || cfg.Failure.MeanEpisodesPerRack != 2.5*1.5 {
		t.Fatalf("failure config %+v: want seed 11, mean 3.75", cfg.Failure)
	}
	if cfg.Failure.CascadeExtraProb != 0.9 {
		t.Fatalf("cascade prob %v, want 0.9", cfg.Failure.CascadeExtraProb)
	}
	if cfg.Scheduler.QueueLimit != 50 {
		t.Fatalf("queue limit %d, want 50", cfg.Scheduler.QueueLimit)
	}
	want := time.Date(2014, 3, 5, 0, 0, 0, 0, timeutil.Chicago)
	if !cfg.Start.Equal(want) {
		t.Fatalf("start %v, want %v", cfg.Start, want)
	}
	// Weather default mirrors sim.Config: Seed+5 when unset.
	s.WeatherSeed = 0
	if got := s.EffectiveWeatherSeed(); got != 12 {
		t.Fatalf("default weather seed %d, want Seed+5 = 12", got)
	}
}

func TestDecodeJobSpecCorruption(t *testing.T) {
	frame, err := EncodeJobSpec(testSpec("c", 3))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     frame[:5],
		"truncated": frame[:len(frame)-3],
		"magic":     append([]byte("XXXX"), frame[4:]...),
		"bitflip": func() []byte {
			b := append([]byte(nil), frame...)
			b[len(b)/2] ^= 0x40
			return b
		}(),
		"oversize-length": func() []byte {
			b := append([]byte(nil), frame...)
			b[4], b[5], b[6], b[7] = 0xff, 0xff, 0xff, 0xff
			return b
		}(),
	}
	for name, b := range cases {
		if _, err := DecodeJobSpec(b); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("%s: error %v does not wrap ErrBadSpec", name, err)
		}
	}
}

func TestClaimResponseRoundTrip(t *testing.T) {
	spec := testSpec("claimed", 5)
	in := ClaimResponse{JobID: 3, Spec: &spec, Attempt: 2, LeaseMS: 30000, Pending: 4, Running: 1}
	frame, err := EncodeClaimResponse(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseClaimResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}

	// Empty claim (no job) round-trips too.
	empty := ClaimResponse{Pending: 0, Running: 2}
	frame, err = EncodeClaimResponse(empty)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := ParseClaimResponse(frame); err != nil || !reflect.DeepEqual(empty, out) {
		t.Fatalf("empty claim round trip: %+v, %v", out, err)
	}

	// Semantic violations wrap ErrBadClaim.
	for name, c := range map[string]ClaimResponse{
		"job-without-spec":  {JobID: 1, LeaseMS: 1000},
		"spec-without-job":  {Spec: &spec},
		"job-without-lease": {JobID: 1, Spec: &spec},
		"negative-depths":   {Pending: -1},
	} {
		frame, err := EncodeClaimResponse(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseClaimResponse(frame); !errors.Is(err, ErrBadClaim) {
			t.Fatalf("%s: error %v does not wrap ErrBadClaim", name, err)
		}
	}
}
