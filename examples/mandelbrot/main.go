// Mandelbrot: a classically imbalanced parallel loop. Rows near the
// set's interior cost far more iterations than rows outside it, so a
// static schedule leaves threads idling at the loop's implicit barrier
// while a dynamic schedule balances the work. The example renders the
// set twice, once per schedule, with the collector's asynchronous
// state sampler attached — the barrier-state fractions in the profile
// show the imbalance the way a real OpenMP profiler would.
package main

import (
	"fmt"
	"log"
	"time"

	"goomp/internal/collector"
	"goomp/internal/omp"
	"goomp/internal/perf"
	"goomp/internal/tool"
)

const (
	width    = 384
	height   = 384
	maxIter  = 3000
	reMin    = -2.0
	reMax    = 0.7
	imMin    = -1.2
	imMax    = 1.2
	escapeSq = 4.0
)

// mandelRow computes the iteration counts of one image row.
func mandelRow(y int, out []uint16) {
	ci := imMin + (imMax-imMin)*float64(y)/float64(height-1)
	for x := 0; x < width; x++ {
		cr := reMin + (reMax-reMin)*float64(x)/float64(width-1)
		var zr, zi float64
		var it uint16
		for it = 0; it < maxIter; it++ {
			zr, zi = zr*zr-zi*zi+cr, 2*zr*zi+ci
			if zr*zr+zi*zi > escapeSq {
				break
			}
		}
		out[x] = it
	}
}

func render(rt *omp.RT, sched omp.Schedule, chunk int) (time.Duration, uint64) {
	img := make([]uint16, width*height)
	elapsed := perf.Time(func() {
		rt.Parallel(func(tc *omp.ThreadCtx) {
			tc.ForSched(height, sched, chunk, func(lo, hi int) {
				for y := lo; y < hi; y++ {
					mandelRow(y, img[y*width:(y+1)*width])
				}
			})
		})
	})
	var checksum uint64
	for _, v := range img {
		checksum += uint64(v)
	}
	return elapsed, checksum
}

func main() {
	rt := omp.New(omp.Config{NumThreads: 4})
	defer rt.Close()

	tl, err := tool.AttachRuntime(rt, tool.Options{
		Measure:      true,
		SamplePeriod: 200 * time.Microsecond,
	})
	if err != nil {
		log.Fatal(err)
	}

	tStatic, sumStatic := render(rt, omp.ScheduleStatic, 0)
	tDynamic, sumDynamic := render(rt, omp.ScheduleDynamic, 4)
	tl.Detach()

	if sumStatic != sumDynamic {
		log.Fatalf("checksums differ: %d vs %d", sumStatic, sumDynamic)
	}
	fmt.Printf("static schedule:  %v\n", tStatic)
	fmt.Printf("dynamic schedule: %v (same checksum %d)\n\n", tDynamic, sumDynamic)

	rep := tl.Report()
	if rep.States != nil {
		fmt.Println("sampled barrier share per thread (static run includes the imbalance):")
		for id := int32(0); id < 4; id++ {
			frac := rep.States.Fraction(id, int32(collector.StateImplicitBarrier))
			fmt.Printf("  thread %d: %.0f%% in implicit barriers\n", id, 100*frac)
		}
	}
}
