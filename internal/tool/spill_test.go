package tool

import (
	"bytes"
	"os"
	"testing"

	"goomp/internal/ingest"
	"goomp/internal/perf"
)

// traceBlock renders one PSX2 block of n samples, as the streamer
// stages a chunk.
func traceBlock(t *testing.T, n int) []byte {
	t.Helper()
	buf := perf.NewTraceBuffer(n, 0)
	for i := 0; i < n; i++ {
		buf.Append(perf.Sample{Time: int64(i + 1), State: -1, Region: uint64(i), StackID: perf.NoStack})
	}
	var out bytes.Buffer
	if err := perf.WriteTraceEnc(&out, buf, perf.Encoding{V2: true}); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// traceFile appends one block per sample count to dir's trace.0.psxt,
// as the file sink does, and returns them as chunk frames numbered from
// 1, each carrying its offset in the file.
func traceFile(t *testing.T, dir string, sizes ...int) []*netItem {
	t.Helper()
	var file []byte
	items := make([]*netItem, len(sizes))
	for i, n := range sizes {
		block := traceBlock(t, n)
		items[i] = &netItem{kind: ingest.MsgChunk, seq: uint64(i + 1), samples: uint32(n), block: block, off: int64(len(file))}
		file = append(file, block...)
	}
	if err := os.WriteFile(tracePath(dir, 0), file, 0o644); err != nil {
		t.Fatal(err)
	}
	return items
}

func TestSpillRoundtripInOrder(t *testing.T) {
	dir := t.TempDir()
	chunks := traceFile(t, dir, 10, 20, 30, 40)
	frames := []*netItem{chunks[0], chunks[1], {kind: ingest.MsgSeal}, chunks[2], chunks[3]}
	l := newSpillIndex(dir, 0)
	for i, it := range frames {
		it.seq = uint64(i + 1)
		if !l.add(it) {
			t.Fatalf("add %d refused", i+1)
		}
	}
	if got, _ := l.stats(); got != 4 {
		t.Fatalf("spilled chunks = %d, want 4 (the SEAL is not a chunk)", got)
	}
	for i, want := range frames {
		it, intact := l.next()
		if it == nil || it.seq != uint64(i+1) || it.kind != want.kind {
			t.Fatalf("pop %d = %+v", i+1, it)
		}
		if !intact {
			t.Fatalf("frame %d reported corrupt on a clean trace file", it.seq)
		}
		if !it.spilled {
			t.Fatal("popped frame not marked spilled")
		}
		if !bytes.Equal(it.block, want.block) {
			t.Fatalf("pop %d block mismatch (%d bytes, want %d)", i+1, len(it.block), len(want.block))
		}
	}
	if it, _ := l.next(); it != nil {
		t.Fatalf("drained spill popped %+v", it)
	}
	if l.pending() != 0 {
		t.Fatalf("pending = %d after drain", l.pending())
	}
}

func TestSpillCRCCorruptionSkipped(t *testing.T) {
	dir := t.TempDir()
	chunks := traceFile(t, dir, 64, 64, 64)
	l := newSpillIndex(dir, 0)
	for _, it := range chunks {
		l.add(it)
	}

	// Flip the last byte of block 2 — payload, under its PSX2 CRC — in
	// the trace file, behind the index's back.
	path := tracePath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[chunks[1].off+int64(len(chunks[1].block))-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	it, intact := l.next()
	if it == nil || it.seq != 1 || !intact {
		t.Fatalf("first pop = %+v (intact %v)", it, intact)
	}
	// The corrupt block comes back block-less, carrying exactly what the
	// caller must settle as lost, and the one after it is good again.
	it, intact = l.next()
	if it == nil || it.seq != 2 || intact || it.block != nil || it.samples != 64 {
		t.Fatalf("corrupt pop = %+v (intact %v), want seq 2, 64 samples, no block", it, intact)
	}
	it, intact = l.next()
	if it == nil || it.seq != 3 || !intact || !bytes.Equal(it.block, chunks[2].block) {
		t.Fatalf("pop after corruption = %+v (intact %v)", it, intact)
	}
}

func TestSpillByteCapRefuses(t *testing.T) {
	dir := t.TempDir()
	chunks := traceFile(t, dir, 100, 100, 100)
	size := int64(len(chunks[0].block))
	l := newSpillIndex(dir, 2*size-1)
	if !l.add(chunks[0]) {
		t.Fatal("first add refused under cap")
	}
	if l.add(chunks[1]) {
		t.Fatal("add past the byte cap accepted")
	}
	// Draining frees budget for new frames.
	if it, _ := l.next(); it == nil || it.seq != 1 {
		t.Fatal("drain failed")
	}
	// A chunk that is not on local disk has nothing to index, however
	// much budget is free.
	notOnDisk := *chunks[2]
	notOnDisk.off = -1
	if l.add(&notOnDisk) {
		t.Fatal("chunk with no file offset accepted")
	}
	if !l.add(chunks[2]) {
		t.Fatal("add refused after drain freed the budget")
	}
}

// TestSpillParksSealAtBound: a control frame holds no block, so a full
// spill still takes it. A SEAL refused there would be settled as a
// frame that carries no data, psxd would never see that thread's end,
// and the run's sealed-thread count would come up short.
func TestSpillParksSealAtBound(t *testing.T) {
	dir := t.TempDir()
	chunks := traceFile(t, dir, 50, 50)
	l := newSpillIndex(dir, int64(len(chunks[0].block)))
	if !l.add(chunks[0]) {
		t.Fatal("chunk that fills the bound exactly refused")
	}
	if !l.add(&netItem{kind: ingest.MsgSeal, seq: 2}) {
		t.Fatal("SEAL refused at the bound")
	}
	chunks[1].seq = 3
	if l.add(chunks[1]) {
		t.Fatal("chunk past the bound accepted")
	}
	if it, intact := l.next(); it == nil || it.seq != 1 || !intact {
		t.Fatalf("first pop = %+v (intact %v), want the chunk", it, intact)
	}
	if it, _ := l.next(); it == nil || it.seq != 2 || it.kind != ingest.MsgSeal {
		t.Fatalf("second pop = %+v, want the SEAL", it)
	}
}

func TestSpillCloseKeepsPendingAccounted(t *testing.T) {
	dir := t.TempDir()
	chunks := traceFile(t, dir, 256, 256, 256)
	l := newSpillIndex(dir, 0)
	l.add(chunks[0])
	l.add(chunks[1])
	l.next() // consume one; one stays pending
	l.close()
	if l.add(chunks[2]) {
		t.Fatal("closed spill accepted a frame")
	}
	chunkCount, samples := l.pendingCounts()
	if chunkCount != 1 || samples != 256 {
		t.Fatalf("pending after close = %d/%d, want 1/256", chunkCount, samples)
	}
	// The pending block is still where the index says it is.
	data, err := os.ReadFile(tracePath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := data[chunks[1].off : chunks[1].off+int64(len(chunks[1].block))]; !bytes.Equal(got, chunks[1].block) {
		t.Fatal("pending block's bytes changed at close")
	}
}

func TestSpillReAddAfterPopKeepsCountsExact(t *testing.T) {
	dir := t.TempDir()
	l := newSpillIndex(dir, 0)
	l.add(traceFile(t, dir, 128)[0])
	it, _ := l.next()
	if it == nil {
		t.Fatal("pop failed")
	}
	// The shutdown path re-parks a popped-but-unacked frame; the
	// cumulative spilled count must not grow a second time.
	if !l.add(it) {
		t.Fatal("re-add refused")
	}
	if chunks, samples := l.stats(); chunks != 1 || samples != 128 {
		t.Fatalf("stats after re-add = %d/%d, want 1/128", chunks, samples)
	}
	if chunks, _ := l.pendingCounts(); chunks != 1 {
		t.Fatalf("pending after re-add = %d", chunks)
	}
}
