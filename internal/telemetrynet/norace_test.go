//go:build !race

package telemetrynet

const raceEnabled = false
