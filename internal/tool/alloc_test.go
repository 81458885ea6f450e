package tool

import (
	"net"
	"testing"
	"time"

	"goomp/internal/ingest"
	"goomp/internal/perf"
)

// sinkConn is a connection that takes every frame and keeps none.
type sinkConn struct {
	net.Conn
	frames, bytes int
}

func (c *sinkConn) Write(p []byte) (int, error) {
	c.frames++
	c.bytes += len(p)
	return len(p), nil
}

func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// TestAllocChunkFrame: the sender builds a CHUNK frame in the buffer it
// owns — header, chunk fields and the block's one copy — and hands it
// to the connection with one Write.
func TestAllocChunkFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	n := &netSink{}
	c := &sinkConn{}
	conn := &wire{c: c}
	it := &netItem{kind: ingest.MsgChunk, seq: 9, thread: 1, samples: 256, block: make([]byte, 2300)}
	send := func() {
		if err := n.send(conn, it); err != nil {
			t.Fatal(err)
		}
	}
	send() // warm-up: the frame buffer grows to a block's size
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("sending a chunk allocates %.2f times per frame, want 0", avg)
	}
	if want := 5 + 16 + len(it.block); c.frames != 202 || c.bytes != 202*want {
		t.Fatalf("%d writes, %d bytes; want 202 writes of %d", c.frames, c.bytes, want)
	}
}

// TestAllocOutboxCycle: a chunk's trip through the outbox — queued,
// sent, acked — allocates nothing once the queue has grown, also when
// frames stay in flight so the queue never empties and is slid down
// over the popped frames instead.
func TestAllocOutboxCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	n := newNetSink(&Options{}, nil)
	block := make([]byte, 64)
	cycle := func() {
		for i := 0; i < 4; i++ {
			n.ship(0, 1, block, -1)
		}
		for {
			if _, ok := n.next(); !ok {
				break
			}
		}
		n.acked(ingest.Ack{Seq: n.seq.Load() - 2, Code: ingest.CodeOK})
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("an outbox cycle of 4 chunks allocates %.2f times, want 0", avg)
	}
	if c, _ := n.led.Settled(shipped); c != 4*209-2 {
		t.Fatalf("%d shipped, want %d", c, 4*209-2)
	}
}

// chunkPath is a streamer with only a network sink, built but never
// started or dialled, and a buffer relaying to it: what a chunk passes
// through from its seal to its OK ack, driven by hand.
type chunkPath struct {
	s    *streamer
	buf  *perf.TraceBuffer
	conn *wire
	next int64
}

func newChunkPath(tb testing.TB) *chunkPath {
	tb.Helper()
	s, err := newStreamer(&Tool{opts: Options{IngestAddr: "127.0.0.1:1"}}, "")
	if err != nil {
		tb.Fatal(err)
	}
	buf := perf.NewRelayBuffer(s.relay, 0, 0)
	return &chunkPath{s: s, buf: buf, conn: &wire{c: &sinkConn{}}}
}

// chunk records a chunk's worth of samples and takes the chunk the
// buffer seals through writeChunk, onto the wire and out of the outbox
// on its OK ack.
func (p *chunkPath) chunk(tb testing.TB) {
	for i := 0; i < perf.ChunkSamples; i++ {
		p.next++
		p.buf.Append(perf.Sample{Time: p.next * 1100, Event: int32(i % 5), Region: uint64(p.next / 19), StackID: perf.NoStack})
	}
	select {
	case sc := <-p.s.relay.C:
		p.s.writeChunk(sc)
	default:
		return // the first call only fills the first chunk
	}
	n := p.s.net
	for {
		it, ok := n.next()
		if !ok {
			break
		}
		if err := n.send(p.conn, &it); err != nil {
			tb.Fatal(err)
		}
	}
	n.acked(ingest.Ack{Seq: n.seq.Load(), Code: ingest.CodeOK})
}

// TestAllocStreamChunk: once the streamer is warm, a chunk's way from
// the writer goroutine's encoder through the outbox and the frame to
// its OK ack allocates nothing: the block is encoded into a buffer the
// network sink handed back when it settled an earlier block.
func TestAllocStreamChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	p := newChunkPath(t)
	for range 4 {
		p.chunk(t)
	}
	if avg := testing.AllocsPerRun(200, func() { p.chunk(t) }); avg != 0 {
		t.Fatalf("a streamed chunk allocates %.2f times, want 0", avg)
	}
	if c, _ := p.s.net.led.Settled(shipped); c != 4-1+201 {
		t.Fatalf("%d chunks shipped, want %d", c, 4-1+201)
	}
}

// BenchmarkStreamChunk times one chunk's way through the streamer — its
// samples recorded, then encoded, queued, framed, written to a
// connection that keeps nothing, and acked — and reports what it
// allocates.
func BenchmarkStreamChunk(b *testing.B) {
	p := newChunkPath(b)
	for range 4 {
		p.chunk(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		p.chunk(b)
	}
}
