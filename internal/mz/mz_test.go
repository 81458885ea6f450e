package mz

import (
	"testing"

	"goomp/internal/npb"
	"goomp/internal/tool"
)

func TestBenchmarksAndByName(t *testing.T) {
	specs := Benchmarks()
	if len(specs) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(specs))
	}
	for _, s := range specs {
		got, err := ByName(s.Name)
		if err != nil || got.Name != s.Name {
			t.Errorf("ByName(%q): %v, %v", s.Name, got.Name, err)
		}
		if s.GX*s.GY < 1 || s.ZoneSize < 4 {
			t.Errorf("%s has degenerate geometry: %+v", s.Name, s)
		}
		for _, c := range []npb.Class{npb.ClassS, npb.ClassW, npb.ClassA, npb.ClassB} {
			if s.StepsFor(c) < 1 {
				t.Errorf("%s class %v has no steps", s.Name, c)
			}
		}
	}
	if _, err := ByName("XX-MZ"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestEveryBenchmarkRunsAndVerifies(t *testing.T) {
	for _, spec := range Benchmarks() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res := Run(spec, Params{Procs: 2, Threads: 2, Class: npb.ClassS})
			if !res.Verified {
				t.Fatalf("%s failed verification: %+v", spec.Name, res)
			}
			if res.CheckValue <= 0 {
				t.Errorf("checksum = %v", res.CheckValue)
			}
			if res.RegionCallsRank0() == 0 {
				t.Error("rank 0 reports no region calls")
			}
		})
	}
}

func TestChecksumIndependentOfDecomposition(t *testing.T) {
	// The same zones produce the same global result whether they live
	// on 1, 2 or 4 ranks: the boundary exchange is Jacobi-style, so
	// the decomposition only changes where zones run.
	spec, _ := ByName("SP-MZ")
	var checks []float64
	for _, procs := range []int{1, 2, 4} {
		res := Run(spec, Params{Procs: procs, Threads: 2, Class: npb.ClassS})
		if !res.Verified {
			t.Fatalf("procs=%d failed", procs)
		}
		checks = append(checks, res.CheckValue)
	}
	if checks[0] != checks[1] || checks[1] != checks[2] {
		t.Errorf("checksums differ across decompositions: %v", checks)
	}
}

func TestTableIIHalvingLaw(t *testing.T) {
	// Per-process region calls halve as the process count doubles at a
	// fixed total core count — the structure of Table II.
	spec, _ := ByName("BT-MZ")
	calls := map[int]uint64{}
	for _, d := range []struct{ procs, threads int }{{1, 4}, {2, 2}, {4, 1}} {
		res := Run(spec, Params{Procs: d.procs, Threads: d.threads, Class: npb.ClassS})
		calls[d.procs] = res.RegionCallsRank0()
	}
	if calls[1] != 2*calls[2] || calls[2] != 2*calls[4] {
		t.Errorf("halving law violated: 1p=%d 2p=%d 4p=%d", calls[1], calls[2], calls[4])
	}
}

func TestTableIIOrdering(t *testing.T) {
	// SP-MZ > BT-MZ > LU-MZ in per-process region calls, as in the
	// paper's Table II at every decomposition.
	calls := map[string]uint64{}
	for _, spec := range Benchmarks() {
		res := Run(spec, Params{Procs: 1, Threads: 2, Class: npb.ClassS})
		calls[spec.Name] = res.RegionCallsRank0()
	}
	if !(calls["SP-MZ"] > calls["BT-MZ"] && calls["BT-MZ"] > calls["LU-MZ"]) {
		t.Errorf("ordering violated: %v", calls)
	}
}

func TestRegionCallsMatchStructure(t *testing.T) {
	// zones/rank × steps × regions-per-zone-step: SP has 9 regions per
	// zone step; at 2 ranks with 16 zones each rank owns 8.
	spec, _ := ByName("SP-MZ")
	steps := spec.StepsFor(npb.ClassS)
	res := Run(spec, Params{Procs: 2, Threads: 2, Class: npb.ClassS})
	want := uint64(8 * steps * 9)
	if res.RegionCallsRank0() != want {
		t.Errorf("rank0 calls = %d, want %d", res.RegionCallsRank0(), want)
	}
	var total uint64
	for _, c := range res.RegionCallsPerRank {
		total += c
	}
	if total != 2*want {
		t.Errorf("total = %d, want %d", total, 2*want)
	}
}

func TestWithToolCountsForkEvents(t *testing.T) {
	spec, _ := ByName("LU-MZ")
	res := Run(spec, Params{
		Procs: 2, Threads: 2, Class: npb.ClassS,
		WithTool: true, ToolOptions: tool.FullMeasurement(),
	})
	if !res.Verified {
		t.Fatal("run failed")
	}
	for r, forks := range res.ForkEventsPerRank {
		if forks != res.RegionCallsPerRank[r] {
			t.Errorf("rank %d: fork events %d != region calls %d",
				r, forks, res.RegionCallsPerRank[r])
		}
	}
}

func TestInvalidDecompositionPanics(t *testing.T) {
	spec, _ := ByName("LU-MZ")
	for _, p := range []Params{
		{Procs: 0, Threads: 1},
		{Procs: 1, Threads: 0},
		{Procs: 99, Threads: 1}, // more procs than zones
	} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("params %+v did not panic", p)
				}
			}()
			Run(spec, p)
		}()
	}
}

func TestZoneSeedsDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for z := 0; z < 64; z++ {
		s := zoneSeed(z)
		if seen[s] {
			t.Fatalf("duplicate zone seed at %d", z)
		}
		seen[s] = true
	}
}
