package epcc

import (
	"runtime"
	"syscall"
	"testing"
	"time"

	"goomp/internal/omp"
)

// BenchmarkEPCCFineSegment runs the bare segment of the pipeline
// benchmark's epcc-fine workload — every directive once, InnerReps 64,
// DelayLength 16, a team of GOMAXPROCS threads and no tool — and
// reports how many cores the process kept busy while it ran: its CPU
// time, user and system, over the wall time. A team that spun through
// every wait would read GOMAXPROCS; one that yields to the Go scheduler
// in its waits reads less. (Linux only: getrusage.)
func BenchmarkEPCCFineSegment(b *testing.B) {
	rt := omp.New(omp.Config{NumThreads: runtime.GOMAXPROCS(0)})
	defer rt.Close()
	s := NewSuite(rt)
	s.InnerReps, s.DelayLength = 64, 16
	ds := Directives()
	segment := func() {
		for _, d := range ds {
			d.Run(s)
		}
	}
	segment() // the team's workers and pools, warm
	b.ResetTimer()
	cpu, start := cpuTime(b), time.Now()
	for range b.N {
		segment()
	}
	wall := time.Since(start)
	b.ReportMetric(float64(cpuTime(b)-cpu)/float64(wall), "cores")
}

// cpuTime returns the CPU time the process has used so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
