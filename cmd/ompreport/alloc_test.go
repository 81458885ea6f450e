package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"goomp/internal/perf"
)

// allocatedBytes returns the heap bytes f allocates, from a collected
// heap.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// writeTrace writes blocks into a trace file of their own in dir.
func writeTrace(t *testing.T, dir string, thread int, blocks ...[]byte) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("trace.%d.psxt", thread))
	if err := os.WriteFile(path, bytes.Join(blocks, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// streamedBlock is one chunk of a streamed trace as v2 block blk of
// thread: every eighth sample a join with one of five stacks.
func streamedBlock(t *testing.T, thread, blk int) []byte {
	t.Helper()
	b := perf.NewTraceBuffer(perf.ChunkSamples, 0)
	for i := 0; i < perf.ChunkSamples; i++ {
		s := perf.Sample{Time: int64(blk*perf.ChunkSamples+i) * 1300, Thread: int32(thread), Event: int32(i % 5),
			State: int32(i % 3), Region: uint64(blk*64 + i/4), Site: uint64(0x401000 + i/4%7*64), StackID: perf.NoStack}
		if i%8 == 0 {
			b.AppendStacked(s, []uintptr{0x401000, 0x402000 + uintptr(i%5)*8, 0x403000})
		} else {
			b.Append(s)
		}
	}
	var out bytes.Buffer
	if err := perf.WriteTraceEnc(&out, b, perf.Encoding{V2: true}); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestAllocReadSamples: the report reads every file's samples once, into
// one slice made by the files' skim counts, so a directory of streamed
// files costs about a sample's own 40 bytes per sample, and a file whose
// header declares 2²⁶ samples over a 4-byte payload costs what its
// bytes do, not 3 GiB.
func TestAllocReadSamples(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	t.Run("streamed", func(t *testing.T) {
		const files, blocks, ceiling = 4, 40, 60 // bytes per sample
		dir := t.TempDir()
		var paths []string
		for th := 0; th < files; th++ {
			var stream [][]byte
			for blk := 0; blk < blocks; blk++ {
				stream = append(stream, streamedBlock(t, th, blk))
			}
			paths = append(paths, writeTrace(t, dir, th, stream...))
		}
		var samples []perf.Sample
		per := float64(allocatedBytes(func() { samples, _, _ = readSamples(paths) }))
		if len(samples) != files*blocks*perf.ChunkSamples {
			t.Fatalf("read %d samples, want %d", len(samples), files*blocks*perf.ChunkSamples)
		}
		if per /= float64(len(samples)); per > ceiling {
			t.Fatalf("reading the files allocates %.1f B/sample, ceiling %d", per, ceiling)
		}
	})
	t.Run("forged", func(t *testing.T) {
		const forged = 1 << 26
		block := streamedBlock(t, 0, 0)[:48] // a v2 header, then the forged payload
		payload := []byte{2, 2, 2, 2}
		binary.LittleEndian.PutUint64(block[12:20], forged)
		binary.LittleEndian.PutUint64(block[36:44], uint64(len(payload)))
		binary.LittleEndian.PutUint32(block[44:48], crc32.ChecksumIEEE(payload))
		paths := []string{writeTrace(t, t.TempDir(), 0, block, payload)}
		var samples []perf.Sample
		var truncated int
		cost := allocatedBytes(func() { samples, _, truncated = readSamples(paths) })
		if truncated != 1 || len(samples) != 0 {
			t.Fatalf("%d samples, %d truncated; want a torn file of none", len(samples), truncated)
		}
		if cost >= 1<<20 {
			t.Fatalf("a file declaring %d samples over %d payload bytes allocates %d bytes", forged, len(payload), cost)
		}
	})
}
