//go:build !race

package tool

const raceEnabled = false
