package tool

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"goomp/internal/ingest"
)

func chunkItem(seq uint64, payload byte, size int) *netItem {
	return &netItem{
		kind:    ingest.MsgChunk,
		seq:     seq,
		thread:  int32(seq % 4),
		samples: uint32(size),
		block:   bytes.Repeat([]byte{payload}, size),
	}
}

func TestSpillRoundtripInOrder(t *testing.T) {
	l, err := newSpillLog(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if !l.add(chunkItem(uint64(i), byte(i), 100*i)) {
			t.Fatalf("add %d refused", i)
		}
	}
	if got, _ := l.stats(); got != 5 {
		t.Fatalf("spilled chunks = %d", got)
	}
	for i := 1; i <= 5; i++ {
		it, intact := l.next()
		if it != nil && !intact {
			t.Fatalf("entry %d reported corrupt on a clean log", it.seq)
		}
		if it == nil || it.seq != uint64(i) {
			t.Fatalf("pop %d = %+v", i, it)
		}
		if !it.spilled {
			t.Fatal("popped frame not marked spilled")
		}
		want := bytes.Repeat([]byte{byte(i)}, 100*i)
		if !bytes.Equal(it.block, want) {
			t.Fatalf("pop %d block mismatch (%d bytes)", i, len(it.block))
		}
	}
	if it, _ := l.next(); it != nil {
		t.Fatalf("drained log popped %+v", it)
	}
	if l.pending() != 0 {
		t.Fatalf("pending = %d after drain", l.pending())
	}
}

func TestSpillCRCCorruptionSkipped(t *testing.T) {
	dir := t.TempDir()
	l, err := newSpillLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.add(chunkItem(1, 0xaa, 64))
	l.add(chunkItem(2, 0xbb, 64))
	l.add(chunkItem(3, 0xcc, 64))

	// Flip one byte inside entry 2's block, on disk, behind the log's
	// back. Entry 1 ends at 5 (seg header) + 25 (entry header+crc) + 64;
	// entry 2's block starts 25 further in.
	seg := filepath.Join(dir, "spill-000000.psxl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := 5 + (spillEntryHeader + 4) + 64 + (spillEntryHeader + 4) + 10
	data[off] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	it, intact := l.next()
	if it == nil || it.seq != 1 || !intact {
		t.Fatalf("first pop = %+v (intact %v)", it, intact)
	}
	// The corrupt entry comes back block-less, carrying exactly what the
	// caller must settle as lost, and the one after it is good again.
	it, intact = l.next()
	if it == nil || it.seq != 2 || intact || it.block != nil || it.samples != 64 {
		t.Fatalf("corrupt pop = %+v (intact %v), want seq 2, 64 samples, no block", it, intact)
	}
	it, intact = l.next()
	if it == nil || it.seq != 3 || !intact {
		t.Fatalf("pop after corruption = %+v (intact %v)", it, intact)
	}
}

func TestSpillByteCapRefuses(t *testing.T) {
	l, err := newSpillLog(t.TempDir(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !l.add(chunkItem(1, 1, 512)) {
		t.Fatal("first add refused under cap")
	}
	if l.add(chunkItem(2, 2, 512)) {
		t.Fatal("add past the byte cap accepted")
	}
	// Draining frees budget for new frames.
	if it, _ := l.next(); it == nil || it.seq != 1 {
		t.Fatal("drain failed")
	}
	if !l.add(chunkItem(3, 3, 512)) {
		t.Fatal("add refused after drain freed the budget")
	}
}

func TestSpillSegmentRotationAndReclaim(t *testing.T) {
	dir := t.TempDir()
	l, err := newSpillLog(dir, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	// 1 MiB blocks: the 4 MiB segment bound rotates after four.
	const n = 9
	for i := 1; i <= n; i++ {
		if !l.add(chunkItem(uint64(i), byte(i), 1<<20)) {
			t.Fatalf("add %d refused", i)
		}
	}
	segs := func() int {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, e := range ents {
			if filepath.Ext(e.Name()) == ".psxl" {
				count++
			}
		}
		return count
	}
	if got := segs(); got < 2 {
		t.Fatalf("%d segment(s) after %d MiB, want rotation", got, n)
	}
	for i := 1; i <= n; i++ {
		if it, _ := l.next(); it == nil || it.seq != uint64(i) {
			t.Fatalf("pop %d failed", i)
		}
	}
	// Sealed segments with no pending entries are deleted as the reader
	// drains past them; only the writer's open segment may remain.
	if got := segs(); got > 1 {
		t.Fatalf("%d segments remain after full drain", got)
	}
}

func TestSpillCloseKeepsPendingSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := newSpillLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.add(chunkItem(1, 1, 256))
	l.add(chunkItem(2, 2, 256))
	l.next() // consume one; one stays pending
	l.close()
	if l.add(chunkItem(3, 3, 256)) {
		t.Fatal("closed log accepted a frame")
	}
	chunks, samples := l.pendingCounts()
	if chunks != 1 || samples != 256 {
		t.Fatalf("pending after close = %d/%d, want 1/256", chunks, samples)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("pending backlog's segment was deleted at close")
	}
}

func TestSpillNeverClobbersEarlierProcess(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "spill-000002.psxl")
	if err := os.WriteFile(old, []byte("PSXL\x01leftover"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := newSpillLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.add(chunkItem(1, 1, 64))
	// The new segment numbering continues past the leftover, which is
	// neither replayed nor rewritten.
	if _, err := os.Stat(filepath.Join(dir, "spill-000003.psxl")); err != nil {
		t.Fatalf("new segment not numbered past the leftover: %v", err)
	}
	data, err := os.ReadFile(old)
	if err != nil || string(data) != "PSXL\x01leftover" {
		t.Fatalf("leftover segment modified: %q, %v", data, err)
	}
	if it, _ := l.next(); it == nil || it.seq != 1 || len(it.block) != 64 {
		t.Fatalf("pop = %+v; leftover data must not be replayed", it)
	}
	if it, _ := l.next(); it != nil {
		t.Fatalf("leftover entry replayed: %+v", it)
	}
}

func TestSpillReAddAfterPopKeepsCountsExact(t *testing.T) {
	l, err := newSpillLog(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	l.add(chunkItem(1, 1, 128))
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
