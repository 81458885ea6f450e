//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; the
// allocation guards are skipped under it, because it changes what an
// allocation costs and makes sync.Pool drop items at random.
const raceEnabled = true
