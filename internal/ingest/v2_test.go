package ingest

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"goomp/internal/perf"
)

// traceBlockV2 renders one valid v2 block of n samples for thread.
func traceBlockV2(t *testing.T, thread int32, n int, flate bool) []byte {
	t.Helper()
	buf := perf.NewTraceBuffer(n, 0)
	for i := 0; i < n; i++ {
		buf.Append(perf.Sample{
			Time: int64(i + 1), Thread: thread, Event: 0, State: -1,
			Region: uint64(i), StackID: perf.NoStack,
		})
	}
	var out bytes.Buffer
	if err := perf.WriteTraceEnc(&out, buf, perf.Encoding{V2: true, Flate: flate}); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestChunkSampleCountCrossChecked pins the satellite-2 server-side
// fix: a chunk whose header-declared sample count disagrees with what
// its block bytes actually hold is refused with CodeBadFrame — the
// count feeds the journal and registry and must not be trusted. Both
// formats are checked; correct counts for both still land.
func TestChunkSampleCountCrossChecked(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tc, _ := dialClient(t, srv.Addr(), "xcheck")
	defer tc.close()

	v1 := traceBlock(t, 0, 5)
	v2 := traceBlockV2(t, 0, 7, true)
	if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: v1})); ack.Code != CodeOK {
		t.Fatalf("correct v1 count refused: %v", ack.Code)
	}
	if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 2, Thread: 0, Samples: 7, Block: v2})); ack.Code != CodeOK {
		t.Fatalf("correct v2 count refused: %v", ack.Code)
	}
	if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 3, Thread: 0, Samples: 6, Block: v1})); ack.Code != CodeBadFrame {
		t.Fatalf("forged v1 count accepted: %v", ack.Code)
	}
	if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 3, Thread: 0, Samples: 8, Block: v2})); ack.Code != CodeBadFrame {
		t.Fatalf("forged v2 count accepted: %v", ack.Code)
	}
	// A structurally torn block is refused outright, not stored.
	if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 3, Thread: 0, Samples: 5, Block: v1[:len(v1)-3]})); ack.Code != CodeBadFrame {
		t.Fatalf("torn block accepted: %v", ack.Code)
	}
	// The refused frames did not advance the sequence: seq 3 with a
	// correct frame still lands.
	if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 3, Thread: 0, Samples: 5, Block: v1})); ack.Code != CodeOK {
		t.Fatalf("sequence burned by refused frames: %v", ack.Code)
	}
}

// TestChunkMustCarrySampleBlocks: a chunk's bytes are trace blocks a
// reader decodes. One with no block at all, one holding a block of
// another kind (the hang-report block older tools appended to salvaged
// traces), PSX2 blocks of versions no reader decodes, one past the
// written version and one below the readers' window — their checksums
// intact, for the version is not under them — a written block with a
// flag bit no reader knows, also outside the checksum, and a written
// block whose checksum holds over a time parameter no reader takes are
// refused with
// their seq and booked, stored and journaled nowhere; the seq stays
// open for the real block.
func TestChunkMustCarrySampleBlocks(t *testing.T) {
	dir := t.TempDir()
	srv, err := Serve("127.0.0.1:0", Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tc, _ := dialClient(t, srv.Addr(), "blocks-only")
	defer tc.close()

	report := []byte{'P', 'S', 'X', 'R', 1, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 'h', 'a', 'n', 'g'}
	version9 := traceBlockV2(t, 0, 5, false)
	version9[4] = 9
	version3 := traceBlockV2(t, 0, 5, false)
	version3[4] = 3
	badFlag := traceBlockV2(t, 0, 5, false)
	badFlag[8] |= 1 << 1 // neither the flate bit nor the time shift's
	badK := traceBlockV2(t, 0, 5, false)
	badK[48] = 0xff // the payload's first byte, the time parameter
	binary.LittleEndian.PutUint32(badK[44:48], crc32.ChecksumIEEE(badK[48:]))
	for _, bad := range []struct {
		name    string
		block   []byte
		samples uint32
	}{
		{"empty", nil, 0},
		{"report", report, 0},
		{"version 9", version9, 5},
		{"version 3", version3, 5},
		{"unknown flag", badFlag, 5},
		{"time parameter out of range", badK, 5},
	} {
		if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: bad.samples, Block: bad.block})); ack.Code != CodeBadFrame || ack.Seq != 1 {
			t.Fatalf("%s chunk acked %v seq %d, want %v seq 1", bad.name, ack.Code, ack.Seq, CodeBadFrame)
		}
	}
	block := traceBlockV2(t, 0, 5, false)
	if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: block})); ack.Code != CodeOK {
		t.Fatalf("seq 1 burned by the refused chunks: %v", ack.Code)
	}
	waitFor(t, "the real chunk to land", func() bool {
		runs := srv.Runs()
		return len(runs) == 1 && runs[0].Chunks > 0
	})
	if ri := srv.Runs()[0]; ri.Chunks != 1 || ri.Samples != 5 || ri.Bytes != uint64(len(block)) {
		t.Fatalf("run booked %d chunks, %d samples, %d bytes; want only the real block's 1, 5, %d",
			ri.Chunks, ri.Samples, ri.Bytes, len(block))
	}
	data, err := os.ReadFile(filepath.Join(dir, "blocks-only", "trace.0.psxt"))
	if err != nil || !bytes.Equal(data, block) {
		t.Fatalf("trace.0.psxt holds %d bytes (%v), want exactly the real block", len(data), err)
	}
	entries, _, err := replayJournal(filepath.Join(dir, "blocks-only", journalName))
	if err != nil || len(entries) != 1 || entries[0].Seq != 1 || entries[0].Samples != 5 || entries[0].Length != uint32(len(block)) {
		t.Fatalf("journal holds %+v (%v), want only the real block's entry", entries, err)
	}
}
