package tool

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestThrottleCountsFromSites checks Skipped, which the per-site
// counters now carry, against a count kept beside it while four
// goroutines race over sites that are new to the throttle.
func TestThrottleCountsFromSites(t *testing.T) {
	st := newSiteThrottle(50)
	var denied atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if !st.allow(uintptr(1 + (i+g)%16)) {
					denied.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if st.Sites() != 16 {
		t.Errorf("sites = %d, want 16", st.Sites())
	}
	if got, want := st.Skipped(), denied.Load(); got != want || want != 4*2000-16*50 {
		t.Errorf("skipped = %d, denied %d, want %d", got, want, 4*2000-16*50)
	}
	if !st.allow(0) {
		t.Error("site 0 throttled")
	}
}

// BenchmarkSelectiveParallel is allow in its steady state: every
// thread's sites seen and over budget. Run it at -cpu 1,2.
func BenchmarkSelectiveParallel(b *testing.B) {
	st := newSiteThrottle(1)
	for site := uintptr(1); site <= 8; site++ {
		st.allow(site)
	}
	var next atomic.Uintptr
	b.RunParallel(func(pb *testing.PB) {
		site := 1 + next.Add(1)%8
		for pb.Next() {
			st.allow(site)
		}
	})
}
