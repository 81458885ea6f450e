package tool_test

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"goomp/internal/ingest"
	"goomp/internal/omp"
	. "goomp/internal/tool"
)

// scriptedDaemon speaks just enough of the ingest protocol to put acks
// on the wire in an order a real psxd produces only under load: a
// durable run's nack leaves the connection handler at once while the
// OK acks of older frames still wait for the group commit.
//
// First connection: grant durable acks, read chunks 1..3, answer only
// Ack{3, nack}, then hold the line until release is closed and drop
// it. Later connections: grant LastSeq 0 and OK-ack everything.
type scriptedDaemon struct {
	lis     net.Listener
	nack    ingest.Code
	release chan struct{}

	mu      sync.Mutex
	resent  map[uint64]bool // chunk seqs seen (and OK-acked) after the first connection
	okAcked uint64
}

func startScriptedDaemon(t *testing.T, nack ingest.Code) *scriptedDaemon {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &scriptedDaemon{lis: lis, nack: nack, release: make(chan struct{}), resent: make(map[uint64]bool)}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for first := true; ; first = false {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			d.serve(c, first)
		}
	}()
	return d
}

func (d *scriptedDaemon) serve(c net.Conn, first bool) {
	defer c.Close()
	br := bufio.NewReader(c)
	if kind, _, err := ingest.ReadFrame(br); err != nil || kind != ingest.MsgHello {
		return
	}
	ingest.WriteFrame(c, ingest.MsgHelloAck,
		ingest.EncodeHelloAck(ingest.HelloAck{Code: ingest.CodeOK, LastSeq: 0, Flags: ingest.FlagDurable}))
	for {
		kind, payload, err := ingest.ReadFrame(br)
		if err != nil {
			return
		}
		var seq uint64
		switch kind {
		case ingest.MsgChunk:
			ck, err := ingest.DecodeChunk(payload)
			if err != nil {
				return
			}
			seq = ck.Seq
			if first {
				if seq == 3 {
					ingest.WriteFrame(c, ingest.MsgAck, ingest.EncodeAck(ingest.Ack{Seq: 3, Code: d.nack}))
					<-d.release
					return
				}
				continue // seqs 1 and 2: read, never acked
			}
			d.mu.Lock()
			d.resent[seq] = true
			d.okAcked++
			d.mu.Unlock()
		case ingest.MsgSeal:
			sl, _ := ingest.DecodeSeal(payload)
			seq = sl.Seq
		case ingest.MsgBye:
			y, _ := ingest.DecodeBye(payload)
			seq = y.Seq
		}
		ingest.WriteFrame(c, ingest.MsgAck, ingest.EncodeAck(ingest.Ack{Seq: seq, Code: ingest.CodeOK}))
	}
}

// TestIngestNackSettlesOnlyItsOwnSeq pins the ack rule: OK acks are
// cumulative, a non-OK ack settles one sequence number. A nack for
// seq 3 that overtakes the acks of seqs 1–2 must leave them in the
// unacked tail, so a reconnect that grants LastSeq 0 gets them resent;
// treating the nack as cumulative booked them as shipped and lost them.
func TestIngestNackSettlesOnlyItsOwnSeq(t *testing.T) {
	for _, tc := range []struct {
		name    string
		nack    ingest.Code
		settled func(*Report) uint64
	}{
		{"overloaded", ingest.CodeOverloaded, func(r *Report) uint64 { return r.IngestDroppedChunks }},
		{"storage", ingest.CodeStorage, func(r *Report) uint64 { return r.IngestStorageChunks }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := startScriptedDaemon(t, tc.nack)
			rt := omp.New(omp.Config{NumThreads: 2})
			defer rt.Close()
			opts := FullMeasurement()
			opts.IngestAddr = d.lis.Addr().String()
			opts.IngestRun = "nack-" + tc.name
			opts.IngestDurable = true
			tl, err := AttachRuntime(rt, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Produce until the nack has been applied, so dropping the
			// connection cannot race the sink reading it.
			deadline := time.Now().Add(30 * time.Second)
			for tc.settled(tl.Report()) == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the nack for seq 3 was never applied")
				}
				for i := 0; i < 50; i++ {
					rt.Parallel(func(tc *omp.ThreadCtx) {})
				}
			}
			close(d.release)
			tl.Detach()
			if err := tl.StreamError(); err != nil {
				t.Fatalf("stream error: %v", err)
			}

			rep := tl.Report()
			checkConservation(t, rep)
			d.mu.Lock()
			defer d.mu.Unlock()
			if !d.resent[1] || !d.resent[2] {
				t.Errorf("seqs 1 and 2 were never acked and must be resent; resent 1: %v, 2: %v", d.resent[1], d.resent[2])
			}
			if d.resent[3] {
				t.Error("seq 3 was nacked and settled; it must not be resent")
			}
			if got := tc.settled(rep); got != 1 {
				t.Errorf("%s bucket holds %d chunks, want exactly the nacked one", tc.name, got)
			}
			if rep.IngestDroppedChunks+rep.IngestStorageChunks != 1 {
				t.Errorf("dropped %d + storage %d, want 1 in total", rep.IngestDroppedChunks, rep.IngestStorageChunks)
			}
			if rep.IngestShippedChunks != d.okAcked {
				t.Errorf("report says %d shipped, the daemon OK-acked %d", rep.IngestShippedChunks, d.okAcked)
			}
		})
	}
}
