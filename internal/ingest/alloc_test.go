package ingest

import (
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"time"
)

// TestAllocServerChunk: what psxd allocates to take one chunk off the
// wire, check it, write and journal it and ack it, non-durable. The
// frame body comes from the pool and goes back once the writer is done
// with it, the ack frame is assembled in pooled scratch, the writer
// reuses its batch and its journal-entry buffer: what is left is the
// ack's 12-byte payload (16 as the allocator rounds it) and now and
// then one more body, when the handler asks before the writer has put
// the last one back. The client side of the test writes one prebuilt
// frame over and over and reads acks into an array, so the whole
// process is the server.
func TestAllocServerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	const warm, chunks, ceiling = 50, 400, 64 // bytes per accepted chunk
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir(), Fsync: FsyncPolicy{Mode: FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tc, _ := dialClient(t, srv.Addr(), "alloc")
	defer tc.close()
	frame := AppendChunkFrame(nil, Chunk{Thread: 1, Samples: 200, Block: traceBlockV2(t, 1, 200, false)})
	srv.mu.Lock()
	r := srv.runs["alloc"]
	srv.mu.Unlock()

	seq := uint64(0)
	var ack [17]byte // length, kind, seq, code
	exchange := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			binary.LittleEndian.PutUint64(frame[5:], seq)
			if _, err := tc.c.Write(frame); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(tc.br, ack[:]); err != nil {
				t.Fatal(err)
			}
			if a, err := DecodeAck(ack[5:]); err != nil || a.Seq != seq || a.Code != CodeOK {
				t.Fatalf("chunk %d: ack %+v, %v", seq, a, err)
			}
			// A non-durable ack says accepted; wait for written too, so
			// the bodies in flight stay the two or three a steady state
			// has instead of growing with the queue.
			for {
				if written, _ := r.led.Settled(committed); written == seq {
					break
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	exchange(warm)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	exchange(chunks)
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / chunks
	t.Logf("psxd allocates %.0f B per accepted chunk", per)
	if per > ceiling {
		t.Fatalf("psxd allocates %.0f B per accepted chunk, ceiling %d", per, ceiling)
	}
}
