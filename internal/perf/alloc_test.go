package perf

import (
	"bytes"
	"runtime"
	"testing"
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

// TestAllocReadTraceStream: the reader materialises a sample once.
// What it keeps per sample is the 48-byte Sample in the merged
// buffer's chunk, that chunk's share of bookkeeping and stack table,
// and the interned stacks: this stream reads at 75 B/sample (the
// reader that decoded each block into a private buffer, copied it out
// and appended it again: 256), and the ceiling is a quarter above.
func TestAllocReadTraceStream(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	const blocks, ceiling = 200, 95 // bytes per sample
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
