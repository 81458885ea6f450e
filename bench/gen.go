package main

import (
	"math/rand"
)

// synthTrace is a seeded synthetic trace with the shape the runtime
// produces: per parallel region, the master forks, every thread
// enters and leaves the implicit barrier, and the master joins with a
// callstack. The counts are what a correct reader must find.
type synthTrace struct {
	Threads    [][]Sample  // per thread, in time order
	Stacks     [][]uintptr // join-stack dictionary; Sample.StackID indexes it
	Samples    int
	Regions    int
	Sites      int
	StealSites int
}

const (
	synthSites  = 32
	synthStacks = 64
)

// genTrace generates at least events samples over the given number of
// threads. Region sites are zipf-weighted, so a few sites carry most
// invocations, as in the NPB kernels.
func genTrace(seed int64, events, threads int) *synthTrace {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, synthSites-1)
	tr := &synthTrace{Threads: make([][]Sample, threads), Stacks: make([][]uintptr, synthStacks)}
	for i := range tr.Stacks {
		pcs := make([]uintptr, 6+rng.Intn(10))
		for j := range pcs {
			pcs[j] = uintptr(0x400000 + rng.Intn(1<<20))
		}
		tr.Stacks[i] = pcs
	}
	perRegion := 2 + 2*threads
	for th := range tr.Threads {
		tr.Threads[th] = make([]Sample, 0, events/perRegion*2+8)
	}
	sites := map[uint64]bool{}
	stealSites := map[uint64]bool{}
	now := int64(1000)
	for tr.Samples < events {
		tr.Regions++
		region := uint64(tr.Regions)
		site := 0x500000 + zipf.Uint64()*0x40
		sites[site] = true
		add := func(th int, t int64, ev, state, stack int32) {
			tr.Threads[th] = append(tr.Threads[th], Sample{
				Time: t, Thread: int32(th), Event: ev, State: state,
				Region: region, Site: site, StackID: stack,
			})
			tr.Samples++
		}
		add(0, now, evFork, 1, noStack)
		var last int64
		arrive := make([]int64, threads)
		for th := range arrive {
			arrive[th] = now + 200 + rng.Int63n(4000)
			if arrive[th] > last {
				last = arrive[th]
			}
		}
		if threads > 1 && tr.Regions%64 == 0 {
			thief := 1 + rng.Intn(threads-1)
			add(thief, now+100, evChunkSteal, int32(rng.Intn(threads)), noStack)
			stealSites[site] = true
		}
		for th := range arrive {
			add(th, arrive[th], evBeginIBar, 3, noStack)
			add(th, last+int64(20*th), evEndIBar, 1, noStack)
		}
		now = last + int64(20*threads) + 50
		add(0, now, evJoin, 1, int32(rng.Intn(synthStacks)))
		now += 100 + rng.Int63n(500)
	}
	tr.Sites, tr.StealSites = len(sites), len(stealSites)
	return tr
}

// blocks cuts every thread's samples into chunk-sized pieces, the
// units the tool seals and ships. With fullOnly, trailing partial
// chunks are left out.
func (tr *synthTrace) blocks(fullOnly bool) (perThread [][][]Sample) {
	perThread = make([][][]Sample, len(tr.Threads))
	for th, ss := range tr.Threads {
		for len(ss) > 0 {
			n := min(blockSamples, len(ss))
			if n < blockSamples && fullOnly {
				break
			}
			perThread[th] = append(perThread[th], ss[:n])
			ss = ss[n:]
		}
	}
	return perThread
}
