//go:build race

package telemetrynet

// raceEnabled reports a race-detector build, where sync.Pool drops items at
// random and allocation counts through it mean nothing.
const raceEnabled = true
