package tool

import (
	"testing"
	"time"
)

// TestDetachPromptBackoffWait is the regression test for the
// uninterruptible retry sleep: Detach used to stall for retries ×
// backoff because the wait could not observe the stop signal. With the
// stop channel closed even a 10s step returns at once, and the caller
// still gets the doubled step for its next attempt.
func TestDetachPromptBackoffWait(t *testing.T) {
	done := make(chan struct{})
	close(done)
	start := time.Now()
	next := waitBackoff(done, 10*time.Second, time.Minute)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("waitBackoff took %v with done closed; the wait is not interruptible", elapsed)
	}
	if next != 20*time.Second {
		t.Errorf("next step = %v, want 20s", next)
	}
}
