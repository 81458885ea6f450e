package tool

import (
	"sync"
	"sync/atomic"
)

// Selective data collection — the §VI strategy for controlling runtime
// overheads: "tools can reduce the number of times data is collected
// by distinguishing between either the same parallel region or the
// calling context for a parallel region". The runtime stamps each
// team descriptor with the static region's site PC, so the tool can
// throttle per region without capturing a callstack: once a region
// site has produced MaxSamplesPerSite samples, further events from
// that site are counted but not stored, and join callstacks are not
// retrieved for it.
//
// This targets exactly the costs the decomposition experiment (§V-B)
// identifies as dominant — measurement and storage — while keeping the
// cheap callback path intact, so event counts stay exact.

// siteThrottle tracks per-region-site sample budgets. The site map is
// copy-on-write: allow reads it without a lock and takes mu only to add
// a site it has not seen, so a region's steady state costs one load
// and one add on the site's own counter. The counters keep counting
// past max, so what was skipped is what they hold beyond it.
type siteThrottle struct {
	max   uint64
	mu    sync.Mutex
	sites atomic.Pointer[map[uintptr]*atomic.Uint64]
}

func newSiteThrottle(max int) *siteThrottle {
	if max <= 0 {
		return nil
	}
	st := &siteThrottle{max: uint64(max)}
	st.sites.Store(&map[uintptr]*atomic.Uint64{})
	return st
}

// allow reports whether a sample from the given region site is within
// budget, consuming one slot if so. Site 0 (no site information, e.g.
// idle events outside regions) is never throttled.
func (st *siteThrottle) allow(site uintptr) bool {
	if st == nil || site == 0 {
		return true
	}
	ctr := (*st.sites.Load())[site]
	if ctr == nil {
		ctr = st.add(site)
	}
	return ctr.Add(1) <= st.max
}

// add returns site's counter, publishing a map that holds it if none
// does yet.
func (st *siteThrottle) add(site uintptr) *atomic.Uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	old := *st.sites.Load()
	if ctr := old[site]; ctr != nil {
		return ctr
	}
	m := make(map[uintptr]*atomic.Uint64, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	ctr := new(atomic.Uint64)
	m[site] = ctr
	st.sites.Store(&m)
	return ctr
}

// Skipped returns how many samples the throttle suppressed.
func (st *siteThrottle) Skipped() uint64 {
	if st == nil {
		return 0
	}
	var n uint64
	for _, ctr := range *st.sites.Load() {
		if v := ctr.Load(); v > st.max {
			n += v - st.max
		}
	}
	return n
}

// Sites returns how many distinct region sites were observed.
func (st *siteThrottle) Sites() int {
	if st == nil {
		return 0
	}
	return len(*st.sites.Load())
}
