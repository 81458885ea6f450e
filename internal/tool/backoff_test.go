package tool

import (
	"testing"
	"time"

	"goomp/internal/faketime"
)

// TestDetachPromptBackoffWait is the regression test for the
// uninterruptible retry sleep: Detach used to stall for retries ×
// backoff because the wait could not observe the stop signal. With the
// stop channel closed even a 10s step returns at once, and the caller
// still gets the doubled step for its next attempt. On fake time "at
// once" is exact, and so is the full step with the channel open.
func TestDetachPromptBackoffWait(t *testing.T) {
	faketime.Run(t, func(t *testing.T) {
		done := make(chan struct{})
		start := time.Now()
		if next := waitBackoff(done, 10*time.Second, time.Minute); next != 20*time.Second {
			t.Errorf("next step = %v, want 20s", next)
		}
		if elapsed := time.Since(start); elapsed != 10*time.Second {
			t.Fatalf("waitBackoff took %v with done open, want its 10s step", elapsed)
		}
		close(done)
		start = time.Now()
		next := waitBackoff(done, 10*time.Second, time.Minute)
		if elapsed := time.Since(start); elapsed != 0 {
			t.Fatalf("waitBackoff took %v with done closed; the wait is not interruptible", elapsed)
		}
		if next != 20*time.Second {
			t.Errorf("next step = %v, want 20s", next)
		}
	})
}
