package ingest

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"time"

	"goomp/internal/freelist"
	"goomp/internal/perf"
)

// TestAllocServerChunk: what psxd allocates to take one chunk off the
// wire, check it, write and journal it and ack it, non-durable. The
// frame body comes from the pool and goes back once the writer is done
// with it, the ack frame is assembled in pooled scratch (the ack's
// payload does not escape), the writer reuses its batch and its
// journal-entry buffer, and ReadFrameInto reads the length prefix into
// the body, where a separate array once escaped on every frame: what
// is left is now and then one more body, when the handler asks before
// the writer has put the last one back. The client side of the test
// writes one prebuilt frame over and over and reads acks into an
// array, so the whole process is the server.
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

// v1Block is a v1 trace block of n samples: 40 bytes a sample, so its
// size is known without encoding it.
func v1Block(t *testing.T, n int) []byte {
	t.Helper()
	buf := perf.NewTraceBuffer(n, 0)
	for i := 0; i < n; i++ {
		buf.Append(perf.Sample{Time: int64(i + 1), Thread: 1, State: -1, StackID: perf.NoStack})
	}
	var out bytes.Buffer
	if err := perf.WriteTrace(&out, buf); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// sendCommitted sends frame n times as the chunks after *seq and waits
// for each to be acked OK and written.
func sendCommitted(t *testing.T, tc *testClient, r *run, frame []byte, seq *uint64, n int) {
	t.Helper()
	var ack [17]byte
	for i := 0; i < n; i++ {
		*seq++
		binary.LittleEndian.PutUint64(frame[5:], *seq)
		if _, err := tc.c.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(tc.br, ack[:]); err != nil {
			t.Fatal(err)
		}
		if a, err := DecodeAck(ack[5:]); err != nil || a.Seq != *seq || a.Code != CodeOK {
			t.Fatalf("chunk %d: ack %+v, %v", *seq, a, err)
		}
		for {
			if written, _ := r.led.Settled(committed); written == *seq {
				break
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// TestAllocServerReconnect: psxd's frame bodies outlive a connection
// and a GC. One connection sends chunks and hangs up; after two GCs (a
// sync.Pool's victim cache survives one, and the benchmark harness runs
// one before every segment and every bare run) a second connection of
// the same run sends more, and its frames are read into bodies the
// first one left behind: its chunks allocate nothing of a body's size.
// (What they do allocate, a few bytes a chunk, is TestAllocServerChunk's
// to bound.)
func TestAllocServerReconnect(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	const chunks = 20
	for frameBodies.Len() > 0 { // start as a new process does: no body of another test's size
		frameBodies.Get()
	}
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir(), Fsync: FsyncPolicy{Mode: FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	frame := AppendChunkFrame(nil, Chunk{Thread: 1, Samples: 200, Block: v1Block(t, 200)})
	seq := uint64(0)
	tc, _ := dialClient(t, srv.Addr(), "reconnect")
	srv.mu.Lock()
	r := srv.runs["reconnect"]
	srv.mu.Unlock()
	sendCommitted(t, tc, r, frame, &seq, chunks)
	tc.close()

	// Both bodies the first connection used, the writer's and the
	// handler's, are back once the handler has seen the hang-up.
	for deadline := time.Now().Add(2 * time.Second); frameBodies.Len() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	runtime.GC()
	tc, _ = dialClient(t, srv.Addr(), "reconnect")
	defer tc.close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sendCommitted(t, tc, r, frame, &seq, chunks)
	runtime.ReadMemStats(&after)
	bodies := uint64(0) // allocations in a size class a body fits in
	for i, c := range after.BySize {
		if int(c.Size) >= len(frame) {
			bodies += c.Mallocs - before.BySize[i].Mallocs
		}
	}
	if bodies != 0 {
		t.Fatalf("a second connection's %d chunks allocate %d times %d B or more, the size of a frame body", chunks, bodies, len(frame))
	}
}

// drainFrames takes every buffer out of p and returns how many there
// were, their bytes and the largest.
func drainFrames(p *freelist.List[*[]byte]) (n, bytes, largest int) {
	for ; p.Len() > 0; n++ {
		b := p.Get()
		bytes += cap(*b)
		largest = max(largest, cap(*b))
	}
	return n, bytes, largest
}

// fillFrames puts buffers of maxPooledFrame into the empty p until it
// keeps no more, empties it again and returns how many it kept.
func fillFrames(p *freelist.List[*[]byte]) int {
	for k := -1; k < p.Len(); {
		k = p.Len()
		b := make([]byte, 0, maxPooledFrame)
		p.Put(&b)
	}
	n, _, _ := drainFrames(p)
	return n
}

// TestRetainedBoundFrames: after a connection whose frames were up to
// four times maxPooledFrame, psxd's free lists keep no body over it,
// so they hold at most the 8 MiB and 2 MiB DESIGN.md states.
func TestRetainedBoundFrames(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir(), Fsync: FsyncPolicy{Mode: FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tc, _ := dialClient(t, srv.Addr(), "bound")
	srv.mu.Lock()
	r := srv.runs["bound"]
	srv.mu.Unlock()
	seq := uint64(0)
	for _, n := range []int{200, 6400, 200, 3200, 200} {
		frame := AppendChunkFrame(nil, Chunk{Thread: 1, Samples: uint32(n), Block: v1Block(t, n)})
		sendCommitted(t, tc, r, frame, &seq, 3)
	}
	tc.close()
	waitFor(t, "the connection's body back", func() bool { return frameBodies.Len() > 1 })
	for _, p := range []struct {
		name  string
		pool  *freelist.List[*[]byte]
		bound int
	}{{"bodies", frameBodies, 8 << 20}, {"scratch", frameScratch, 2 << 20}} {
		n, bytes, largest := drainFrames(p.pool)
		capacity := fillFrames(p.pool)
		if largest > maxPooledFrame || n > capacity || bytes > p.bound || capacity*maxPooledFrame > p.bound {
			t.Errorf("%s: %d buffers, %d B, the largest %d B; bound %d B", p.name, n, bytes, largest, p.bound)
		}
	}
}
