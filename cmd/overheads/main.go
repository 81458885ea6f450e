// Command overheads regenerates the §V-B decomposition experiment: it
// runs LU-HP (4 threads) and SP-MZ (4 processes × 1 thread) with the
// collector detached, with callbacks only, and with full measurement
// and storage, and reports what share of the total tool overhead the
// measurement/storage phase accounts for — the paper measured 81.22%
// for LU-HP and 99.35% for SP-MZ, concluding that optimization effort
// belongs in the measurement/storage phase of tool development.
//
// Usage:
//
//	overheads [-class S|W|A|B] [-reps 3] [-probe N]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"goomp/internal/collector"
	"goomp/internal/experiments"
	"goomp/internal/npb"
	"goomp/internal/tool"
)

// probeEventCost measures the bare per-event record cost of the
// measurement hot path — one dispatched event through the descriptor-
// pinned single-writer buffer — by dispatching n events on one bound
// descriptor and timing them.
func probeEventCost(n int) (time.Duration, error) {
	col := collector.New()
	tl, err := tool.AttachCollector(col, tool.Options{Measure: true})
	if err != nil {
		return 0, err
	}
	defer tl.Detach()
	ti := collector.NewThreadInfo(0)
	col.BindThread(ti)
	const resetEvery = 1 << 20 // bound probe memory
	start := time.Now()
	for i := 0; i < n; i++ {
		if i%resetEvery == 0 && i > 0 {
			tl.ResetTraces()
		}
		col.Event(ti, collector.EventFork)
	}
	return time.Since(start) / time.Duration(n), nil
}

func main() {
	classFlag := flag.String("class", "W", "problem class: S, W, A or B")
	reps := flag.Int("reps", 5, "timings per configuration (minimum taken)")
	probe := flag.Int("probe", 0,
		"also measure the bare per-event record cost over N dispatched events")
	flag.Parse()

	if *probe > 0 {
		per, err := probeEventCost(*probe)
		if err != nil {
			fmt.Fprintln(os.Stderr, "overheads:", err)
			os.Exit(1)
		}
		fmt.Printf("per-event record cost: %v (over %d events)\n\n", per, *probe)
	}

	class, err := npb.ParseClass(*classFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overheads:", err)
		os.Exit(1)
	}
	rows, err := experiments.Decomposition(class, *reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overheads:", err)
		os.Exit(1)
	}
	experiments.WriteDecomposition(os.Stdout, rows)
	fmt.Println("\nIf the share is high, overhead reduction effort should focus on")
	fmt.Println("the measurement/storage phases of performance tool development,")
	fmt.Println("not on the callback/communication machinery (§V-B).")
}
