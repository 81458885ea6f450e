//go:build !race

package perf

const raceEnabled = false
