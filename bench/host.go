package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// hostInfo is recorded in every output file: a number means nothing without
// the machine and the harness constants it was measured with.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"loadavg_at_start"`
	GitCommit  string `json:"git_commit"`
	// GeneratorConns is the load generator's connection cap; generator and
	// server run in one process, so they always share the host's cores.
	GeneratorConns int     `json:"generator_connections"`
	SharedCores    bool    `json:"generator_and_server_share_cores"`
	LadderRPS      []int   `json:"ladder_rps"`
	LatencyLimitMs float64 `json:"latency_limit_p99_ms"`
	ClosedLoop     string  `json:"closed_loop"`
	StudyWindow    string  `json:"study_window"`
	FixtureWindow  string  `json:"fixture_window"`
	IngestTrace    string  `json:"ingest_trace"`
	IngestFleet    string  `json:"ingest_fleet"`
	IngestReadRPS  int     `json:"ingest_read_rps"`
}

func readHost(sz sizes) hostInfo {
	h := hostInfo{
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		CPUModel:       cpuModel(),
		GitCommit:      gitCommit(),
		GeneratorConns: runtime.NumCPU(),
		SharedCores:    true,
		LadderRPS:      sz.Ladder,
		LatencyLimitMs: sz.LatencyLimitMs,
		ClosedLoop:     fmt.Sprintf("rounds of %d requests open loop, then %d batches of %d closed loop", sz.OpenSegment, sz.ClosedPerRound, sz.ClosedBatch),
		StudyWindow:    window(sz.StudyStart, sz.StudyEnd) + " at " + sz.Step.String(),
		FixtureWindow:  window(sz.FixtureStart, sz.FixtureEnd) + " at " + sz.Step.String(),
		IngestTrace:    fmt.Sprintf("%d days from %s, %d epochs a pass", sz.TraceDays, sz.TraceStart.Format("2006-01-02"), sz.IngestEpochs),
		IngestFleet:    fmt.Sprintf("%d halls x 48 racks, retention %s", sz.IngestHalls, sz.IngestRetention),
		IngestReadRPS:  sz.IngestReadRPS,
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.TrimSpace(string(b))
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is best effort: the driver's checkout is not a git repository.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMiB is this process's high-water resident set.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
