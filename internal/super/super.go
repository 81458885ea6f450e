// Package super is the hang-supervision core: a per-process registry
// of typed wait records plus a watchdog that turns "nothing has moved
// for HangTimeout" into a diagnostic instead of a silent wedge.
//
// Every blocking edge of the runtime — omp barriers, locks, critical,
// ordered, mpi Recv/Barrier/collectives — registers a WaitRecord with
// the active Supervisor immediately before parking and clears it on
// wake. Lock-shaped resources additionally report ownership
// transitions (Acquired/Released), which is what lets the watchdog
// distinguish a true deadlock (a cycle in the wait-for graph) from
// starvation or a lost wakeup (blocked threads, no cycle).
//
// The whole package is free when disabled: Enabled is a single atomic
// pointer load returning nil, and every instrumentation site is
//
//	if s := super.Enabled(); s != nil { tok = s.BeginWait(0, ...) }
//
// so an un-supervised run pays one predicted branch per wait, nothing
// else — no allocation, no lock, no time syscall.
package super

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ResourceKind classifies what a thread is blocked on. The kind
// decides whether the resource can have an owner (locks do; barriers
// and messages do not) and how it renders in reports.
type ResourceKind uint8

const (
	ResLock    ResourceKind = iota // omp Lock / NestedLock
	ResCrit                        // named critical section
	ResOrdered                     // ordered construct turn
	ResBarrier                     // omp team barrier
	ResMsg                         // mpi message (Recv)
	ResMPIBar                      // mpi world barrier
)

func (k ResourceKind) String() string {
	switch k {
	case ResLock:
		return "lock"
	case ResCrit:
		return "critical"
	case ResOrdered:
		return "ordered"
	case ResBarrier:
		return "barrier"
	case ResMsg:
		return "message"
	case ResMPIBar:
		return "mpi-barrier"
	}
	return "resource"
}

// Ownable reports whether resources of this kind have a single owner
// and therefore contribute owner edges to the wait-for graph.
func (k ResourceKind) Ownable() bool {
	return k == ResLock || k == ResCrit
}

// Resource identifies one thing a thread can block on. ID must be
// stable for the life of the resource (a pointer value, a region id, a
// tag); Detail is free text for reports ("critical \"update\"",
// "src=1 tag=7") and does not participate in identity.
type Resource struct {
	Kind   ResourceKind
	ID     uint64
	Detail string
}

type resKey struct {
	kind ResourceKind
	id   uint64
}

func (r Resource) key() resKey { return resKey{r.Kind, r.ID} }

func (r Resource) String() string {
	if r.Detail != "" {
		return fmt.Sprintf("%s %#x (%s)", r.Kind, r.ID, r.Detail)
	}
	return fmt.Sprintf("%s %#x", r.Kind, r.ID)
}

// WaitRecord is one registered blocked thread: who waits, on what,
// since when, and where in the code it parked.
type WaitRecord struct {
	token  uint64
	Who    string // stable thread label, e.g. "omp1 thread 3"
	Thread int32  // collector thread id, or -1 for mpi ranks
	Res    Resource
	State  string // collector state name at park time, e.g. "THR_LKWT_STATE"
	Since  time.Time
	pcs    [8]uintptr
	npc    int
}

// Site renders the innermost interesting frame of the park site.
func (w *WaitRecord) Site() string {
	frames := runtime.CallersFrames(w.pcs[:w.npc])
	for {
		f, more := frames.Next()
		if f.Function != "" {
			return fmt.Sprintf("%s (%s:%d)", f.Function, trimPath(f.File), f.Line)
		}
		if !more {
			return "unknown"
		}
	}
}

func trimPath(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}

// Options configures a Supervisor.
type Options struct {
	// Timeout is how long the process may make no progress (no wait
	// registered/cleared, no resource acquired/released, no Note) with
	// at least one thread blocked before the watchdog fires. Required.
	Timeout time.Duration
	// OnHang receives the report, exactly once, from the watchdog
	// goroutine. Required.
	OnHang func(*HangReport)
}

// Supervisor holds the live wait records and ownership map for one
// process and runs the watchdog. At most one Supervisor is active at
// a time (Start enforces this); instrumentation reaches it through
// Enabled.
type Supervisor struct {
	opts Options

	mu     sync.Mutex
	nextTk uint64
	waits  map[uint64]*WaitRecord // token -> record
	owners map[resKey]string      // ownable resource -> holder label
	held   map[string][]Resource  // holder label -> resources held

	progress atomic.Uint64 // bumped on every state change
	fired    atomic.Bool
	done     chan struct{}
	wg       sync.WaitGroup
}

// active is the package-global supervisor pointer; Enabled loads it.
var active atomic.Pointer[Supervisor]

// Enabled returns the active supervisor, or nil when supervision is
// off. This is the zero-cost gate every instrumentation site uses.
func Enabled() *Supervisor { return active.Load() }

// Start creates and activates a supervisor. It fails if one is
// already active (one hang verdict per process keeps reports
// coherent) or if the options are incomplete.
func Start(opts Options) (*Supervisor, error) {
	if opts.Timeout <= 0 {
		return nil, fmt.Errorf("super: Timeout must be positive")
	}
	if opts.OnHang == nil {
		return nil, fmt.Errorf("super: OnHang is required")
	}
	s := &Supervisor{
		opts:   opts,
		waits:  make(map[uint64]*WaitRecord),
		owners: make(map[resKey]string),
		held:   make(map[string][]Resource),
		done:   make(chan struct{}),
	}
	if !active.CompareAndSwap(nil, s) {
		return nil, fmt.Errorf("super: a supervisor is already active")
	}
	s.wg.Add(1)
	go s.watchdog()
	return s, nil
}

// Stop deactivates the supervisor and waits for the watchdog to exit.
// Safe to call more than once.
func (s *Supervisor) Stop() {
	if !active.CompareAndSwap(s, nil) {
		// Either already stopped or a different supervisor is active;
		// still make sure our watchdog is down.
		select {
		case <-s.done:
			return
		default:
		}
	}
	s.mu.Lock()
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// BeginWait registers a wait record immediately before the caller
// parks and returns a token for EndWait. It captures the stack from the
// wait's site on: the caller, or skip frames further out when the
// caller is a wrapper the construct that blocks reaches it through.
func (s *Supervisor) BeginWait(skip int, who string, thread int32, res Resource, state string) uint64 {
	w := &WaitRecord{Who: who, Thread: thread, Res: res, State: state, Since: time.Now()}
	w.npc = runtime.Callers(2+skip, w.pcs[:])
	s.mu.Lock()
	s.nextTk++
	w.token = s.nextTk
	s.waits[w.token] = w
	s.mu.Unlock()
	s.progress.Add(1)
	return w.token
}

// EndWait clears the record; the thread is runnable again.
func (s *Supervisor) EndWait(token uint64) {
	if token == 0 {
		return
	}
	s.mu.Lock()
	delete(s.waits, token)
	s.mu.Unlock()
	s.progress.Add(1)
}

// Acquired records that who now owns res. Only Ownable kinds matter;
// others are ignored.
func (s *Supervisor) Acquired(res Resource, who string) {
	if !res.Kind.Ownable() {
		return
	}
	s.mu.Lock()
	k := res.key()
	s.owners[k] = who
	s.held[who] = append(s.held[who], res)
	s.mu.Unlock()
	s.progress.Add(1)
}

// Released clears ownership of res. It keys on resource identity
// only: omp Lock.Release takes no thread context, so the releaser is
// assumed to be the recorded owner (the OpenMP contract).
func (s *Supervisor) Released(res Resource) {
	if !res.Kind.Ownable() {
		return
	}
	s.mu.Lock()
	k := res.key()
	if who, ok := s.owners[k]; ok {
		delete(s.owners, k)
		hl := s.held[who]
		for i := range hl {
			if hl[i].key() == k {
				hl[i] = hl[len(hl)-1]
				s.held[who] = hl[:len(hl)-1]
				break
			}
		}
		if len(s.held[who]) == 0 {
			delete(s.held, who)
		}
	}
	s.mu.Unlock()
	s.progress.Add(1)
}

// Note records forward progress with no wait-state change — loop
// chunks retiring, messages delivered. It is what keeps a
// slow-but-alive run from being misdiagnosed as hung.
func (s *Supervisor) Note() { s.progress.Add(1) }

// WaitInfo is the exported snapshot form of a WaitRecord.
type WaitInfo struct {
	Who    string  `json:"who"`
	Thread int32   `json:"thread"`
	Kind   string  `json:"kind"`
	Res    string  `json:"resource"`
	State  string  `json:"state,omitempty"`
	ForSec float64 `json:"for_sec"`
	Site   string  `json:"site"`
	Holds  string  `json:"holds,omitempty"`
}

// SnapshotWaits returns the live wait records, oldest first, for the
// obs /waits endpoint and report building.
func (s *Supervisor) SnapshotWaits() []WaitInfo {
	now := time.Now()
	s.mu.Lock()
	recs := make([]*WaitRecord, 0, len(s.waits))
	for _, w := range s.waits {
		recs = append(recs, w)
	}
	heldOf := make(map[string]string, len(s.held))
	for who, rs := range s.held {
		parts := make([]string, len(rs))
		for i, r := range rs {
			parts[i] = r.String()
		}
		sort.Strings(parts)
		heldOf[who] = join(parts, ", ")
	}
	s.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Since.Before(recs[j].Since) })
	out := make([]WaitInfo, len(recs))
	for i, w := range recs {
		out[i] = WaitInfo{
			Who:    w.Who,
			Thread: w.Thread,
			Kind:   w.Res.Kind.String(),
			Res:    w.Res.String(),
			State:  w.State,
			ForSec: now.Sub(w.Since).Seconds(),
			Site:   w.Site(),
			Holds:  heldOf[w.Who],
		}
	}
	return out
}

func join(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}

// watchdog polls the progress counter. It fires the hang report once
// when the counter has been flat for >= Timeout while at least one
// wait record has been parked for >= Timeout.
func (s *Supervisor) watchdog() {
	defer s.wg.Done()
	t := time.NewTicker(max(s.opts.Timeout/4, time.Millisecond))
	defer t.Stop()
	last := s.progress.Load()
	flatSince := time.Now()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
		}
		cur := s.progress.Load()
		now := time.Now()
		if cur != last {
			last = cur
			flatSince = now
			continue
		}
		if now.Sub(flatSince) < s.opts.Timeout {
			continue
		}
		if !s.oldestWaitExceeds(s.opts.Timeout, now) {
			continue
		}
		if !s.fired.CompareAndSwap(false, true) {
			return
		}
		rep := s.buildReport(now.Sub(flatSince))
		// OnHang runs on its own goroutine: the handler typically
		// force-detaches the tool, which calls Stop, which waits for
		// this watchdog goroutine — delivering inline would deadlock.
		go s.opts.OnHang(rep)
		return
	}
}

// oldestWaitExceeds reports whether some wait record has been parked
// for at least d. A flat progress counter with no waiters is an idle
// process, not a hang.
func (s *Supervisor) oldestWaitExceeds(d time.Duration, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.waits {
		if now.Sub(w.Since) >= d {
			return true
		}
	}
	return false
}

// Fired reports whether the watchdog has delivered its report.
func (s *Supervisor) Fired() bool { return s.fired.Load() }
