package tool

import (
	"net"
	"testing"
	"time"

	"goomp/internal/ingest"
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
