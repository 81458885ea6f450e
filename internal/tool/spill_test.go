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
		items[i] = &netItem{kind: ingest.MsgChunk, seq: uint64(i + 1), samples: uint32(n), block: block, size: len(block), off: int64(len(file))}
		file = append(file, block...)
	}
	if err := os.WriteFile(tracePath(dir, 0), file, 0o644); err != nil {
		t.Fatal(err)
	}
	return items
}

// parkingSink is an unconnected sink over dir that keeps no unsent
// chunk in memory: every chunk it queues is parked.
func parkingSink(dir string) *netSink {
	n := newNetSink(&Options{StreamDir: dir}, nil)
	n.depth = 0
	return n
}

// queue books and enqueues frames as ship and seal do, keeping their
// sequence numbers.
func queue(n *netSink, frames ...*netItem) {
	for _, it := range frames {
		if it.kind == ingest.MsgChunk {
			n.led.Take(it.samples)
		}
		n.enqueue(*it)
	}
}

// mustNext sends the next frame and checks its sequence number.
func mustNext(t *testing.T, n *netSink, seq uint64) netItem {
	t.Helper()
	it, ok := n.next()
	if !ok || it.seq != seq {
		t.Fatalf("next = %+v (ok %v), want seq %d", it, ok, seq)
	}
	return it
}

func settledChunks(n *netSink, b ingest.Bucket) uint64 {
	c, _ := n.led.Settled(b)
	return c
}

func TestSpillRoundtripInOrder(t *testing.T) {
	dir := t.TempDir()
	chunks := traceFile(t, dir, 10, 20, 30, 40)
	frames := []*netItem{chunks[0], chunks[1], {kind: ingest.MsgSeal}, chunks[2], chunks[3]}
	n := parkingSink(dir)
	for i, it := range frames {
		it.seq = uint64(i + 1)
	}
	queue(n, frames...)
	if got, _ := n.spilledCounts(); got != 4 {
		t.Fatalf("spilled chunks = %d, want 4 (the SEAL is not a chunk)", got)
	}
	if c, s := n.parkedCounts(); c != 4 || s != 100 {
		t.Fatalf("parked = %d/%d, want 4/100", c, s)
	}
	for i, want := range frames {
		it := mustNext(t, n, uint64(i+1))
		if it.kind != want.kind || it.spilled != (want.kind == ingest.MsgChunk) {
			t.Fatalf("frame %d = %+v", it.seq, it)
		}
		if !bytes.Equal(it.block, want.block) {
			t.Fatalf("frame %d block mismatch (%d bytes, want %d)", it.seq, len(it.block), len(want.block))
		}
	}
	if it, ok := n.next(); ok {
		t.Fatalf("drained outbox sent %+v", it)
	}
	if c, _ := n.parkedCounts(); c != 0 {
		t.Fatalf("parked = %d after every frame was read back", c)
	}
	n.acked(ingest.Ack{Seq: 5, Code: ingest.CodeOK})
	if n.head != len(n.q) || settledChunks(n, replayed) != 4 {
		t.Fatalf("after the final ack: settled all %v, replayed %d", n.head == len(n.q), settledChunks(n, replayed))
	}
	if err := n.led.Balance(); err != nil {
		t.Fatal(err)
	}
}

func TestSpillCRCCorruptionSkipped(t *testing.T) {
	dir := t.TempDir()
	chunks := traceFile(t, dir, 64, 64, 64)
	n := parkingSink(dir)
	queue(n, chunks...)

	// Flip the last byte of block 2 — payload, under its PSX2 CRC — in
	// the trace file, behind the queue's back.
	path := tracePath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[chunks[1].off+int64(len(chunks[1].block))-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	mustNext(t, n, 1)
	// The corrupt block is settled as lost on the way, and the one
	// after it is sent intact.
	if it := mustNext(t, n, 3); !bytes.Equal(it.block, chunks[2].block) {
		t.Fatal("frame after the corrupt one came back changed")
	}
	if c, s := n.led.Settled(dropped); c != 1 || s != 64 {
		t.Fatalf("dropped = %d/%d, want the corrupt chunk's 1/64", c, s)
	}
	if c, _ := n.parkedCounts(); c != 0 {
		t.Fatalf("parked = %d, want 0", c)
	}
}

func TestSpillByteCapRefuses(t *testing.T) {
	dir := t.TempDir()
	chunks := traceFile(t, dir, 100, 100, 100)
	size := int64(len(chunks[0].block))
	n := parkingSink(dir)
	n.parked.bytes = maxParkedBytes - (2*size - 1) // the bound leaves room for one block
	queue(n, chunks[0])
	if c, _ := n.parkedCounts(); c != 1 {
		t.Fatal("first chunk not parked under the bound")
	}
	queue(n, chunks[1])
	if settledChunks(n, dropped) != 1 {
		t.Fatal("chunk past the parked-byte bound was not dropped")
	}
	// Reading a block back frees its share of the bound.
	mustNext(t, n, 1)
	// A chunk that is not on local disk cannot be parked, however much
	// of the bound is free.
	notOnDisk := *chunks[2]
	notOnDisk.off = -1
	queue(n, &notOnDisk)
	if settledChunks(n, dropped) != 2 {
		t.Fatal("chunk with no file offset was not dropped")
	}
	onDisk := *chunks[2]
	onDisk.seq = 4
	queue(n, &onDisk)
	if c, _ := n.parkedCounts(); c != 1 {
		t.Fatal("chunk refused after a read-back freed the bound")
	}
}

// TestSpillParksSealAtBound: a control frame holds no block, so it
// queues past both bounds. A SEAL refused there would be settled as a
// frame that carries no data, psxd would never see that thread's end,
// and the run's sealed-thread count would come up short.
func TestSpillParksSealAtBound(t *testing.T) {
	dir := t.TempDir()
	chunks := traceFile(t, dir, 50, 50)
	n := parkingSink(dir)
	n.parked.bytes = maxParkedBytes - int64(len(chunks[0].block))
	queue(n, chunks[0], &netItem{kind: ingest.MsgSeal, seq: 2})
	chunks[1].seq = 3
	queue(n, chunks[1])
	if settledChunks(n, dropped) != 1 {
		t.Fatal("chunk past the bound was not dropped")
	}
	if it := mustNext(t, n, 1); it.kind != ingest.MsgChunk {
		t.Fatalf("first frame = %+v, want the chunk", it)
	}
	if it := mustNext(t, n, 2); it.kind != ingest.MsgSeal {
		t.Fatalf("second frame = %+v, want the SEAL", it)
	}

	// Without a file sink the memory bound drops chunks, never a SEAL.
	n = newNetSink(&Options{IngestPendingDepth: 1}, nil)
	queue(n, chunks[0], chunks[1], &netItem{kind: ingest.MsgSeal, seq: 4})
	mustNext(t, n, 1)
	if it := mustNext(t, n, 4); it.kind != ingest.MsgSeal {
		t.Fatalf("net-only frame after the bound = %+v, want the SEAL", it)
	}
}

// TestSpillRewindResendsHead: a reconnect makes the frames on the wire
// unsent again and resends them in order, parked ones with the block
// they were read back with; a nack removes only its own frame, and the
// memory bound counts the resent frames again until they are sent.
func TestSpillRewindResendsHead(t *testing.T) {
	dir := t.TempDir()
	chunks := traceFile(t, dir, 8, 8, 8, 8)
	n := newNetSink(&Options{StreamDir: dir, IngestPendingDepth: 2}, nil)
	queue(n, chunks[:3]...) // 1 and 2 held in memory, 3 parked
	for seq := uint64(1); seq <= 3; seq++ {
		mustNext(t, n, seq)
	}
	n.acked(ingest.Ack{Seq: 2, Code: ingest.CodeOverloaded})
	n.rewind()
	if n.held != 2 {
		t.Fatalf("held = %d after rewind, want the 2 frames back on the unsent side", n.held)
	}
	mustNext(t, n, 1)
	if it := mustNext(t, n, 3); !it.spilled || !bytes.Equal(it.block, chunks[2].block) {
		t.Fatalf("resent parked frame = %+v", it)
	}
	queue(n, chunks[3])
	if c, _ := n.spilledCounts(); c != 1 {
		t.Fatalf("spilled = %d, want 1: the resends freed the memory bound", c)
	}
	n.acked(ingest.Ack{Seq: 3, Code: ingest.CodeOK})
	if settledChunks(n, dropped) != 1 || settledChunks(n, shipped) != 1 || settledChunks(n, replayed) != 1 {
		t.Fatalf("dropped %d shipped %d replayed %d, want 1 each",
			settledChunks(n, dropped), settledChunks(n, shipped), settledChunks(n, replayed))
	}
}

func TestSpillCloseKeepsPendingAccounted(t *testing.T) {
	dir := t.TempDir()
	chunks := traceFile(t, dir, 256, 256, 256)
	n := parkingSink(dir)
	queue(n, chunks...)
	mustNext(t, n, 1)
	n.acked(ingest.Ack{Seq: 1, Code: ingest.CodeOK})
	mustNext(t, n, 2) // on the wire, never acked
	n.stop()
	if c, s := n.parkedCounts(); c != 2 || s != 512 {
		t.Fatalf("pending after the hard stop = %d/%d, want 2/512", c, s)
	}
	if c, _ := n.spilledCounts(); c != 3 {
		t.Fatalf("spilled = %d, want 3", c)
	}
	if err := n.led.Balance(); err != nil {
		t.Fatal(err)
	}
	// The pending blocks are still where the queue says they are.
	data, err := os.ReadFile(tracePath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range chunks[1:] {
		if got := data[it.off : it.off+int64(len(it.block))]; !bytes.Equal(got, it.block) {
			t.Fatalf("pending block %d's bytes changed at the hard stop", it.seq)
		}
	}
}

func TestSpillReAddAfterPopKeepsCountsExact(t *testing.T) {
	dir := t.TempDir()
	n := parkingSink(dir)
	queue(n, traceFile(t, dir, 128)[0])
	mustNext(t, n, 1)
	// The hard stop parks a read-back but unacked frame again; the
	// cumulative spilled count must not grow a second time.
	n.stop()
	if chunks, samples := n.spilledCounts(); chunks != 1 || samples != 128 {
		t.Fatalf("spilled after the hard stop = %d/%d, want 1/128", chunks, samples)
	}
	if chunks, _ := n.parkedCounts(); chunks != 1 {
		t.Fatalf("pending after the hard stop = %d", chunks)
	}
}
