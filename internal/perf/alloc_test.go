package perf

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"
)

// allocatedBytes returns the heap bytes f allocates, from a collected
// heap. ReadMemStats stops the world and flushes every allocation
// cache, so the difference is exact for a test that runs alone.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocStream is a streamed trace file in little: v2 blocks of one
// chunk each, every eighth sample a join with one of five stacks.
func allocStream(t *testing.T, blocks int) []byte {
	t.Helper()
	var out bytes.Buffer
	for blk := 0; blk < blocks; blk++ {
		b := NewTraceBuffer(ChunkSamples, 0)
		for i := 0; i < ChunkSamples; i++ {
			s := Sample{Time: int64(blk*ChunkSamples+i) * 1300, Thread: 2, Event: int32(i % 5), State: int32(i % 3),
				Region: uint64(blk*64 + i/4), Site: uint64(0x401000 + i/4%7*64), StackID: NoStack}
			if i%8 == 0 {
				b.AppendStacked(s, []uintptr{0x401000, 0x402000 + uintptr(i%5)*8, 0x403000, 0x404000})
			} else {
				b.Append(s)
			}
		}
		if err := WriteTraceEnc(&out, b, Encoding{V2: true}); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestAllocBlockSamples: psxd counts the samples of every chunk it is
// sent; once the pooled reader exists that costs no allocation at all.
func TestAllocBlockSamples(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	block := allocStream(t, 1)
	count := func() {
		if n, err := BlockSamples(block); err != nil || n != ChunkSamples {
			t.Fatalf("BlockSamples = %d, %v", n, err)
		}
	}
	count() // warm-up: the pool makes its reader
	if avg := testing.AllocsPerRun(200, count); avg != 0 {
		t.Fatalf("BlockSamples allocates %.2f times per v2 block, want 0", avg)
	}
}

// TestAllocBlockSamplesAfterGC: the readers BlockSamples keeps outlive
// a GC, so psxd's first chunks after one count as cheaply as the rest.
// One call is measured straight after two GCs (a sync.Pool's victim
// cache survives one); testing.AllocsPerRun would hide a refill behind
// its own warm-up call. As AllocsPerRun does, the window holds
// GOMAXPROCS at 1, so that no other goroutine's allocation lands in the
// process-wide count.
func TestAllocBlockSamplesAfterGC(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	block := allocStream(t, 1)
	if n, err := BlockSamples(block); err != nil || n != ChunkSamples {
		t.Fatalf("BlockSamples = %d, %v", n, err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := BlockSamples(block)
	runtime.ReadMemStats(&after)
	if err != nil || n != ChunkSamples {
		t.Fatalf("BlockSamples = %d, %v", n, err)
	}
	if k := after.Mallocs - before.Mallocs; k != 0 {
		t.Fatalf("BlockSamples allocates %d times (%d B) after a GC, want 0", k, after.TotalAlloc-before.TotalAlloc)
	}
}

// TestAllocReadTraceStream: the reader materialises a sample once.
// What it keeps per sample is the 40-byte Sample in the one slab it
// sized by skimming the stream first, and its share of the buffer's
// table of distinct stacks: this stream reads at 40.8 B/sample, and
// the ceiling is a quarter above.
func TestAllocReadTraceStream(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	const blocks, ceiling = 200, 51 // bytes per sample
	stream := allocStream(t, blocks)
	got := allocatedBytes(func() {
		buf, err := ReadTraceStream(bytes.NewReader(stream))
		if err != nil || buf.Len() != blocks*ChunkSamples {
			t.Fatalf("ReadTraceStream: %d samples, %v", buf.Len(), err)
		}
	})
	if per := float64(got) / (blocks * ChunkSamples); per > ceiling {
		t.Fatalf("ReadTraceStream allocates %.0f B/sample, ceiling %d", per, ceiling)
	}
}

// TestAllocReadTraceStreamSamples: taking the samples out of a decoded
// buffer adds nothing, since Samples hands over the slab: 40.8 B/sample
// for the two together, and the ceiling is a quarter above.
func TestAllocReadTraceStreamSamples(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	const blocks, ceiling = 200, 51 // bytes per sample
	stream := allocStream(t, blocks)
	got := allocatedBytes(func() {
		buf, err := ReadTraceStream(bytes.NewReader(stream))
		if n := len(buf.Samples()); err != nil || n != blocks*ChunkSamples {
			t.Fatalf("ReadTraceStream + Samples: %d samples, %v", n, err)
		}
	})
	if per := float64(got) / (blocks * ChunkSamples); per > ceiling {
		t.Fatalf("ReadTraceStream + Samples allocates %.0f B/sample, ceiling %d", per, ceiling)
	}
}

// TestAllocAppendCallstack: recording a join whose call path the chunk
// already holds captures into the buffer's own scratch and stores the
// sample only.
func TestAllocAppendCallstack(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	b := NewTraceBuffer(ChunkSamples, 0)
	record := func() { b.AppendCallstack(Sample{Time: 1}, 0) }
	record() // warm-up: the chunk makes its stack table and arena
	if avg := testing.AllocsPerRun(200, record); avg != 0 {
		t.Fatalf("AppendCallstack allocates %.2f times per repeated path, want 0", avg)
	}
	// Three paths lead to record: from here, and from AllocsPerRun's
	// own warm-up call and its loop.
	if b.Len() != 202 || b.NumStacks() != 3 {
		t.Fatalf("%d samples, %d stacks; want 202, 3", b.Len(), b.NumStacks())
	}
}

// TestAllocSealEncode: with the free list primed, a chunk's way from
// the recording thread to its PSX2 block allocates nothing — the chunk,
// its stack table, arena and relay handle come off the free list, the
// encoder's scratch is its own, and the block is appended to a buffer
// the consumer reuses.
func TestAllocSealEncode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	for _, deflate := range []bool{false, true} {
		relay := NewRelay(4)
		b := NewRelayBuffer(relay, 0, 0)
		var enc BlockEncoder
		var block []byte
		next := int64(0)
		round := func() {
			for i := 0; i < ChunkSamples; i++ {
				next++
				s := Sample{Time: next * 1100, Event: int32(i % 5), Region: uint64(next / 19), StackID: NoStack}
				if i%19 == 0 {
					b.AppendCallstack(s, 0)
				} else {
					b.Append(s)
				}
			}
			select {
			case sc := <-relay.C:
				var err error
				block, err = enc.AppendChunk(block[:0], sc, deflate)
				sc.Release()
				if err != nil {
					t.Fatal(err)
				}
			default: // the first round only fills the first chunk
			}
		}
		testing.AllocsPerRun(32, round) // the free list, the arenas, the block's buffer
		if avg := testing.AllocsPerRun(100, round); avg != 0 {
			t.Fatalf("deflate=%v: a sealed chunk allocates %.2f times beside its reused %d B block, want 0", deflate, avg, len(block))
		}
	}
}

// TestChunkLayout: what recycling and the per-chunk call paths added to
// a chunk lives in what used to be padding. The chunk is no larger than
// it was (the reader's chunks are the same 128-byte objects), and the
// counters readers poll are still a cache line away from the writer's
// cursors.
// TestSampleLayout: a Sample is the 40 bytes its fields need, with
// the three 8-byte fields leading, so that a field added out of its
// size's group cannot bring padding back into every sample slice.
func TestSampleLayout(t *testing.T) {
	var s Sample
	if size := unsafe.Sizeof(s); size != 40 {
		t.Errorf("Sample is %d bytes, want 40", size)
	}
	if a, b, c := unsafe.Offsetof(s.Time), unsafe.Offsetof(s.Region), unsafe.Offsetof(s.Site); a != 0 || b != 8 || c != 16 {
		t.Errorf("Time, Region, Site at %d, %d, %d; want 0, 8, 16", a, b, c)
	}
}

func TestChunkLayout(t *testing.T) {
	var c chunk
	if size := unsafe.Sizeof(c); size > 128 {
		t.Errorf("chunk is %d bytes, want at most 128", size)
	}
	if w, r := unsafe.Offsetof(c.wns), unsafe.Offsetof(c.n); w >= cacheLinePad || r < cacheLinePad {
		t.Errorf("wns at %d and n at %d share a cache line", w, r)
	}
}
