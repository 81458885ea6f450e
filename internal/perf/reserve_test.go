package perf

import (
	"testing"
	"unsafe"
)

// heldBytes is what a chunk in the reserve keeps reachable: itself, its
// samples, its stack table and any stack the table still points at, its
// path table and arena.
func heldBytes(c *chunk) int {
	n := int(unsafe.Sizeof(*c)) + cap(c.samples)*int(unsafe.Sizeof(Sample{})) +
		cap(c.stacks)*int(unsafe.Sizeof([]uintptr(nil)))
	for _, st := range c.stacks {
		n += cap(st) * int(unsafe.Sizeof(uintptr(0)))
	}
	if c.paths != nil {
		n += int(unsafe.Sizeof(*c.paths)) + cap(c.paths.pcs)*int(unsafe.Sizeof(uintptr(0)))
	}
	return n
}

// drainReserve takes every chunk out of the reserve.
func drainReserve() []*chunk {
	var out []*chunk
	for reserve.Len() > 0 {
		out = append(out, reserve.Get())
	}
	return out
}

// TestRetainedBoundReserve: a relaying buffer seals more chunks than
// the reserve holds, some with so many distinct call paths that their
// arenas outgrow the first slab, and some with copied stacks;
// the consumer releases them all and the buffer is retired. The
// reserve then holds at most reserveChunks chunks, none with an
// overgrown arena or a stack left in its table, so at most the 5.3 MiB
// DESIGN.md states. The retired buffer is empty and holds none of them.
func TestRetainedBoundReserve(t *testing.T) {
	drainReserve()
	relay := NewRelay(2 * reserveChunks)
	b := NewRelayBuffer(relay, 0, 0)
	pcs := make([]uintptr, callstackDepth)
	for k := 0; k < 2*reserveChunks; k++ {
		for i := 0; i < ChunkSamples/2; i++ {
			s := Sample{Time: int64(k*ChunkSamples + i), StackID: NoStack}
			switch {
			case k%8 == 0:
				for j := range pcs {
					pcs[j] = uintptr(k<<20 | i<<8 | j + 1) // every path new
				}
				b.appendPath(s, pcs)
			case i%16 == 0:
				b.AppendStacked(s, pcs)
			default:
				b.Append(s)
				b.Append(s)
			}
		}
	}
	b.Append(Sample{Time: -1}) // a residue
	close(relay.C)
	for sc := range relay.C {
		sc.Release()
	}
	b.Retire()
	if n := b.Len(); n != 0 || len(b.Samples()) != 0 || b.NumStacks() != 0 {
		t.Fatalf("a retired buffer holds %d samples", n)
	}

	held := drainReserve()
	perChunk := int(unsafe.Sizeof(chunk{})) + ChunkSamples*int(unsafe.Sizeof(Sample{})) +
		ChunkSamples*int(unsafe.Sizeof([]uintptr(nil))) + int(unsafe.Sizeof(pathTable{})) +
		arenaSlab*int(unsafe.Sizeof(uintptr(0)))
	total := 0
	for _, c := range held {
		if c == retired.chunks[0] {
			t.Fatal("the reserve holds the retired buffer's chunk")
		}
		if c.paths != nil && cap(c.paths.pcs) > arenaSlab {
			t.Fatalf("the reserve keeps an arena of %d PCs", cap(c.paths.pcs))
		}
		for i, st := range c.stacks {
			if st != nil {
				t.Fatalf("a reserved chunk keeps stack %d alive", i)
			}
		}
		total += heldBytes(c)
	}
	if len(held) > reserveChunks || total > reserveChunks*perChunk || total > 53*(1<<20)/10 {
		t.Fatalf("the reserve holds %d chunks, %d B; bound %d chunks, %d B", len(held), total, reserveChunks, reserveChunks*perChunk)
	}
	t.Logf("reserve: %d chunks, %d B (bound %d B)", len(held), total, reserveChunks*perChunk)
}

// TestRetireWithReader: a retired buffer's chunk goes to the reserve,
// unless a reader is inside its bracket; the next relaying buffer
// starts in a reserved chunk.
func TestRetireWithReader(t *testing.T) {
	for _, reading := range []bool{false, true} {
		drainReserve()
		b := NewRelayBuffer(NewRelay(1), 0, 0)
		b.Append(Sample{Time: 1})
		c := b.active
		st := b.enter()
		if !reading {
			b.exit()
		}
		b.Retire()
		held := drainReserve()
		if reading && (len(held) != 0 || st.chunks[0].n.Load() != 1) {
			t.Fatalf("%d chunks reserved while a reader held one", len(held))
		}
		if !reading && (len(held) != 1 || held[0] != c) {
			t.Fatalf("the retired buffer's chunk is not the one reserved (%d reserved)", len(held))
		}
		if reading {
			b.exit()
		} else {
			recycle(c)
			if nb := NewRelayBuffer(NewRelay(1), 1, 0); nb.active != c || nb.Len() != 0 {
				t.Fatal("a new relaying buffer does not start in the reserved chunk, emptied")
			}
		}
		if b.Len() != 0 || len(b.Samples()) != 0 {
			t.Fatal("the retired buffer is not empty")
		}
		b.Append(Sample{Time: 2}) // a retired buffer written again records in memory
		if b.Len() != 1 || len(drainReserve()) != 0 {
			t.Fatal("a write after Retire was not kept in memory")
		}
	}
}

// TestRecycleClearsPublishedStacks seals chunks holding k stacks, for k
// going up and down, through a relay whose reserve is otherwise empty,
// so each chunk the buffer takes is the one it released before it.
// Every released chunk must hold no stack pointer, and every sealed
// chunk must hold exactly its own k stacks, whatever the chunk held the
// time before.
func TestRecycleClearsPublishedStacks(t *testing.T) {
	drainReserve()
	relay := NewRelay(1)
	b := NewRelayBuffer(relay, 0, 0)
	defer b.Retire()
	for round, k := range []int{3, 0, 40, 7, 0, ChunkSamples / 2, 1} {
		for i := 0; i < k; i++ {
			b.AppendStacked(Sample{Time: int64(i)}, []uintptr{uintptr(round<<16 | i + 1)})
		}
		for len(relay.C) == 0 {
			b.Append(Sample{StackID: NoStack}) // until one seals the chunk
		}
		sc := <-relay.C
		c := sc.c
		if got := int(c.nStacks.Load()); got != k {
			t.Fatalf("round %d: chunk sealed with %d stacks, want %d", round, got, k)
		}
		for i, st := range c.stacks {
			if (i < k) != (st != nil) || i < k && st[0] != uintptr(round<<16|i+1) {
				t.Fatalf("round %d: sealed stack slot %d = %v with %d stacks", round, i, st, k)
			}
		}
		sc.Release()
		for i, st := range c.stacks {
			if st != nil {
				t.Fatalf("round %d: released chunk keeps stack slot %d = %v", round, i, st)
			}
		}
	}
}
