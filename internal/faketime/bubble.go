//go:build goexperiment.synctest

package faketime

import (
	"testing"
	"testing/synctest"
)

// Run runs f in a synctest bubble and returns once every goroutine
// started in it has exited. f must stop what it starts: a cleanup
// registered with t.Cleanup runs outside the bubble. Go 1.25 renames
// synctest.Run to synctest.Test; this is the one call to change then.
func Run(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { f(t) })
}

// Wait returns once every other goroutine in the bubble is durably
// blocked: whatever they could do without the clock moving is done.
func Wait() { synctest.Wait() }

// Main runs the package's tests.
func Main(m *testing.M) { m.Run() }
