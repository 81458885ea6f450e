package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// ASCII rendering of the paper's bar figures: each benchmark gets a
// group of bars, one per configuration, scaled to the maximum overhead
// in the data set — enough to eyeball the shape (who is worst, by
// roughly what factor) against the published charts.

const chartWidth = 50

// WriteBarChart renders overhead rows as horizontal bars, grouped by
// benchmark; the figures emit each benchmark's rows together.
func WriteBarChart(w io.Writer, title string, rows []OverheadRow) {
	fmt.Fprintf(w, "%s\n", title)
	if len(rows) == 0 {
		fmt.Fprintln(w, "  (no data)")
		return
	}
	var max float64
	for _, r := range rows {
		if r.Percent > max {
			max = r.Percent
		}
	}
	if max == 0 {
		max = 1
	}
	for i, r := range rows {
		if i == 0 || r.Benchmark != rows[i-1].Benchmark {
			fmt.Fprintf(w, "%s\n", r.Benchmark)
		}
		n := int(r.Percent / max * chartWidth)
		if n > chartWidth {
			n = chartWidth
		}
		// Pad by rune count: %-*s pads by bytes, and the block
		// rune is three bytes.
		bar := strings.Repeat("█", n) + strings.Repeat(" ", chartWidth-n)
		if n == 0 && r.Percent > 0 {
			bar = "▏" + bar[:len(bar)-1]
		}
		fmt.Fprintf(w, "  %-6s |%s| %5.1f%%\n", r.Config, bar, r.Percent)
	}
}

// WriteCallsChart renders Table I's region calls as bars scaled to the
// largest, ordered by count, to visualize the LU-HP dominance.
func WriteCallsChart(w io.Writer, title string, rows []TableIRow) {
	fmt.Fprintf(w, "%s\n", title)
	rows = slices.Clone(rows)
	top := uint64(1)
	for _, r := range rows {
		top = max(top, r.RegionCalls)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].RegionCalls != rows[j].RegionCalls {
			return rows[i].RegionCalls > rows[j].RegionCalls
		}
		return rows[i].Benchmark < rows[j].Benchmark
	})
	for _, r := range rows {
		n := int(float64(r.RegionCalls) / float64(top) * chartWidth)
		if n == 0 && r.RegionCalls > 0 {
			n = 1
		}
		bar := strings.Repeat("█", n) + strings.Repeat(" ", chartWidth-n)
		fmt.Fprintf(w, "  %-8s |%s| %d\n", r.Benchmark, bar, r.RegionCalls)
	}
}

// WriteCSV emits overhead rows as CSV (benchmark,config,off_ns,on_ns,
// overhead_pct,region_calls,verified) for external plotting.
func WriteCSV(w io.Writer, rows []OverheadRow) error {
	if _, err := fmt.Fprintln(w, "benchmark,config,off_ns,on_ns,overhead_pct,region_calls,verified"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%.2f,%d,%v\n",
			r.Benchmark, r.Config, r.Off.Nanoseconds(), r.On.Nanoseconds(),
			r.Percent, r.RegionCalls, r.Verified); err != nil {
			return err
		}
	}
	return nil
}
