package super

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Verdict is the watchdog's diagnosis.
type Verdict string

const (
	// VerdictDeadlock means the wait-for graph contains a cycle: the
	// blocked threads can never wake each other.
	VerdictDeadlock Verdict = "deadlock"
	// VerdictNoProgress means threads are blocked with no cycle —
	// starvation, a lost wakeup, or a peer that will never send.
	VerdictNoProgress Verdict = "no-progress"
)

// HangReport is what OnHang receives: the diagnosis, every blocked
// thread, and the deadlock cycle when one exists.
type HangReport struct {
	Verdict Verdict       `json:"verdict"`
	IdleFor time.Duration `json:"idle_for"`
	Waits   []WaitInfo    `json:"waits"`
	// Cycle holds the deadlock cycle as alternating "who" and
	// "resource" labels: A waits-for R1 held-by B waits-for R2
	// held-by A. Empty for VerdictNoProgress.
	Cycle []string `json:"cycle,omitempty"`
	// States is extra per-thread context appended by the tool layer
	// (collector QueryState output); super itself leaves it empty.
	States []string `json:"states,omitempty"`
}

// buildReport snapshots the graph under the lock and runs cycle
// detection. Called once, from the watchdog.
func (s *Supervisor) buildReport(idle time.Duration) *HangReport {
	rep := &HangReport{Verdict: VerdictNoProgress, IdleFor: idle}
	rep.Waits = s.SnapshotWaits()

	// Build waiter -> owner edges: an edge exists only when the
	// awaited resource is ownable and currently owned. Barriers,
	// messages and ordered turns have no owner, so they can never
	// close a cycle — by construction a cycle is a genuine lock
	// cycle.
	s.mu.Lock()
	type edge struct {
		to  string
		via Resource
	}
	next := make(map[string]edge, len(s.waits))
	for _, w := range s.waits {
		if !w.Res.Kind.Ownable() {
			continue
		}
		if owner, ok := s.owners[w.Res.key()]; ok && owner != w.Who {
			next[w.Who] = edge{to: owner, via: w.Res}
		}
	}
	s.mu.Unlock()

	// Follow the chains. Out-degree is at most one (a thread blocks
	// on one resource), so cycle detection is pointer-chasing with a
	// visited set; deterministic order for stable reports.
	starts := make([]string, 0, len(next))
	for who := range next {
		starts = append(starts, who)
	}
	sort.Strings(starts)
	state := make(map[string]int, len(next)) // 0 unvisited, 1 on path, 2 done
	for _, start := range starts {
		path := []string{}
		who := start
		for {
			if st, ok := state[who]; ok && st == 2 {
				break // leads into an already-cleared chain
			}
			if st, ok := state[who]; ok && st == 1 {
				// who is on the current path: cycle found. Render it
				// from the first occurrence of who.
				i := 0
				for path[i] != who {
					i++
				}
				cyc := []string{}
				for ; i < len(path); i++ {
					cyc = append(cyc, path[i], next[path[i]].via.String())
				}
				cyc = append(cyc, who)
				rep.Verdict = VerdictDeadlock
				rep.Cycle = cyc
				return rep
			}
			e, ok := next[who]
			if !ok {
				break // chain ends at a non-blocked (or non-lock-blocked) owner
			}
			state[who] = 1
			path = append(path, who)
			who = e.to
		}
		for _, p := range path {
			state[p] = 2
		}
	}
	return rep
}

// Render formats the report as the multi-line text that goes to
// stderr and to the hang.report file beside the salvaged traces.
func (r *HangReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "HANG detected: verdict=%s after %v of no progress, %d thread(s) blocked\n",
		r.Verdict, r.IdleFor.Round(time.Millisecond), len(r.Waits))
	for _, w := range r.Waits {
		fmt.Fprintf(&b, "  %-16s blocked %6.2fs on %s", w.Who, w.ForSec, w.Res)
		if w.State != "" {
			fmt.Fprintf(&b, " state=%s", w.State)
		}
		fmt.Fprintf(&b, "\n                   at %s\n", w.Site)
		if w.Holds != "" {
			fmt.Fprintf(&b, "                   holds %s\n", w.Holds)
		}
	}
	if len(r.Cycle) > 0 {
		b.WriteString("  cycle: ")
		for i, el := range r.Cycle {
			if i > 0 {
				if i%2 == 1 {
					b.WriteString(" -> [")
				} else {
					b.WriteString("] -> ")
				}
			}
			b.WriteString(el)
		}
		b.WriteString("\n")
	} else {
		b.WriteString("  no cycle in the wait-for graph: starvation, lost wakeup, or a peer that never arrives\n")
	}
	for _, s := range r.States {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	return b.String()
}
