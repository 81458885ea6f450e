// Package mz implements the multi-zone hybrid benchmarks of the
// paper's evaluation (NPB3.2-MZ-MPI: BT-MZ, SP-MZ, LU-MZ). The domain
// is a 2D tiling of zones; MPI ranks (goomp/internal/mpi) own disjoint
// zone subsets and each rank runs its own OpenMP runtime
// (goomp/internal/omp), the process-private runtime of a real hybrid
// code. Every timestep advances each owned zone with the zone solver's
// characteristic parallel-region structure and then exchanges zone
// boundary faces through MPI (including rank-local neighbors, as the
// originals do at 1 process).
//
// Table II's structure falls directly out of this organization: the
// per-process region-call count is zones-per-rank × steps ×
// regions-per-zone-step, so it halves every time the process count
// doubles at fixed total cores.
package mz

import (
	"fmt"
	"math"
	"sort"
	"time"

	"goomp/internal/collector"
	"goomp/internal/mpi"
	"goomp/internal/npb"
	"goomp/internal/omp"
	"goomp/internal/tool"
)

// Spec describes one multi-zone benchmark.
type Spec struct {
	Name string
	// GX×GY zones, each a cube of edge ZoneSize.
	GX, GY   int
	ZoneSize int
	// NewZone builds a zone solver on a rank's runtime.
	NewZone func(rt *omp.RT, n int, seed uint64) npb.Zone
	// StepsFor maps a class to the timestep count.
	StepsFor func(c npb.Class) int
}

// stepsByClass builds a StepsFor function from the four class values.
func stepsByClass(s, w, a, b int) func(npb.Class) int {
	return func(c npb.Class) int {
		switch c {
		case npb.ClassS:
			return s
		case npb.ClassW:
			return w
		case npb.ClassA:
			return a
		default:
			return b
		}
	}
}

// Benchmarks returns the three multi-zone benchmarks. Zone counts and
// step counts are scaled so the per-process region-call ordering of
// Table II (SP-MZ > BT-MZ > LU-MZ) is preserved: SP-MZ pairs the most
// zones with the most steps and the highest per-step region count;
// LU-MZ has few zones and two regions per zone step.
func Benchmarks() []Spec {
	return []Spec{
		{
			Name: "BT-MZ", GX: 4, GY: 4, ZoneSize: 8,
			NewZone:  npb.NewBTZone,
			StepsFor: stepsByClass(4, 8, 12, 20),
		},
		{
			Name: "SP-MZ", GX: 4, GY: 4, ZoneSize: 8,
			NewZone:  npb.NewSPZone,
			StepsFor: stepsByClass(8, 16, 24, 40),
		},
		{
			Name: "LU-MZ", GX: 4, GY: 2, ZoneSize: 10,
			NewZone:  npb.NewLUZone,
			StepsFor: stepsByClass(5, 10, 15, 25),
		},
	}
}

// ByName returns the named multi-zone benchmark.
func ByName(name string) (Spec, error) {
	for _, s := range Benchmarks() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("mz: unknown benchmark %q", name)
}

// Params configures a run: the process × thread decomposition of the
// paper's Figure 6 and Table II (1×8, 2×4, 4×2, 8×1).
type Params struct {
	Procs   int
	Threads int // OpenMP threads per process
	Class   npb.Class
	// WithTool attaches the collector tool to every rank's runtime.
	WithTool    bool
	ToolOptions tool.Options
}

// Result summarizes a run.
type Result struct {
	Name     string
	Procs    int
	Threads  int
	Class    npb.Class
	Time     time.Duration
	Verified bool
	// CheckValue is the deterministic global checksum (zone norms
	// summed in zone order); identical across decompositions.
	CheckValue float64
	// RegionCallsPerRank is each rank's dynamic region-call count —
	// the per-process quantity Table II reports.
	RegionCallsPerRank []uint64
	// ForkEventsPerRank is each rank's fork-notification count when a
	// tool is attached.
	ForkEventsPerRank []uint64
}

// RegionCallsRank0 returns rank 0's region calls (the Table II cell).
func (r Result) RegionCallsRank0() uint64 {
	if len(r.RegionCallsPerRank) == 0 {
		return 0
	}
	return r.RegionCallsPerRank[0]
}

// zoneSeed gives every zone a deterministic forcing seed independent
// of the rank decomposition.
func zoneSeed(zone int) uint64 {
	return npb.SeedAt(npb.DefaultSeed, uint64(1000*(zone+1)))
}

// Run executes the benchmark under the given decomposition.
func Run(spec Spec, p Params) Result {
	if p.Procs < 1 || p.Threads < 1 {
		panic("mz: invalid decomposition")
	}
	if !p.Class.Valid() {
		p.Class = npb.ClassS
	}
	nzones := spec.GX * spec.GY
	steps := spec.StepsFor(p.Class)
	if p.Procs > nzones {
		panic(fmt.Sprintf("mz: %d processes exceed %d zones", p.Procs, nzones))
	}

	res := Result{
		Name: spec.Name, Procs: p.Procs, Threads: p.Threads, Class: p.Class,
		RegionCallsPerRank: make([]uint64, p.Procs),
		ForkEventsPerRank:  make([]uint64, p.Procs),
	}

	// Round-robin zone ownership, as the originals' load balancer does
	// for equal-size zones.
	owner := func(zone int) int { return zone % p.Procs }

	// Unique MPI tag per (destination zone, destination side, step).
	tagOf := func(step, zone, side int) int {
		return (step*nzones+zone)*4 + side
	}

	norms := make([]float64, nzones)
	start := time.Now()
	world := mpi.NewWorld(p.Procs)
	world.Run(func(c *mpi.Comm) {
		rt := omp.New(omp.Config{NumThreads: p.Threads})
		defer rt.Close()
		var tl *tool.Tool
		if p.WithTool {
			var err error
			tl, err = tool.AttachRuntime(rt, p.ToolOptions)
			if err != nil {
				panic(err)
			}
			defer tl.Detach()
		}

		// Build owned zones.
		myZones := make(map[int]npb.Zone)
		for z := 0; z < nzones; z++ {
			if owner(z) == c.Rank() {
				myZones[z] = spec.NewZone(rt, spec.ZoneSize, zoneSeed(z))
			}
		}
		zoneIDs := make([]int, 0, len(myZones))
		for z := range myZones {
			zoneIDs = append(zoneIDs, z)
		}
		sort.Ints(zoneIDs)

		neighbor := func(zone, side int) (int, int, bool) {
			zx, zy := zone%spec.GX, zone/spec.GX
			switch side {
			case 0:
				zx--
			case 1:
				zx++
			case 2:
				zy--
			default:
				zy++
			}
			if zx < 0 || zx >= spec.GX || zy < 0 || zy >= spec.GY {
				return 0, 0, false
			}
			// The neighbor receives on its opposite side.
			return zy*spec.GX + zx, side ^ 1, true
		}

		for step := 0; step < steps; step++ {
			// Advance owned zones (the OpenMP-parallel phase).
			for _, z := range zoneIDs {
				myZones[z].Step()
			}
			// Boundary exchange (the MPI phase): every face goes
			// through the message layer, including rank-local pairs.
			for _, z := range zoneIDs {
				for side := 0; side < 4; side++ {
					nz, nside, ok := neighbor(z, side)
					if !ok {
						continue
					}
					c.Send(owner(nz), tagOf(step, nz, nside), myZones[z].Face(side))
				}
			}
			for _, z := range zoneIDs {
				for side := 0; side < 4; side++ {
					if _, _, ok := neighbor(z, side); !ok {
						continue
					}
					data, _ := c.Recv(mpi.AnySource, tagOf(step, z, side))
					myZones[z].CoupleFace(side, data)
				}
			}
			c.Barrier()
		}

		for _, z := range zoneIDs {
			norms[z] = myZones[z].Norm() // disjoint writes per rank
		}
		res.RegionCallsPerRank[c.Rank()] = rt.RegionCalls()
		if tl != nil {
			res.ForkEventsPerRank[c.Rank()] = tl.Report().Events[collector.EventFork]
		}
	})
	res.Time = time.Since(start)

	ok := true
	for z := 0; z < nzones; z++ {
		if math.IsNaN(norms[z]) || norms[z] <= 0 {
			ok = false
		}
		res.CheckValue += norms[z]
	}
	res.Verified = ok
	return res
}
