package ingest

import (
	"testing"
	"time"

	"goomp/internal/faketime"
)

// slowFS delays every write so the run's writer goroutine drains its
// queue far slower than a flooding client can fill it.
type slowFS struct{ d time.Duration }

type slowFile struct {
	File
	d time.Duration
}

func (f slowFile) Write(b []byte) (int, error) {
	time.Sleep(f.d)
	return f.File.Write(b)
}

func (s slowFS) Create(path string) (File, error) {
	f, err := osFS{}.Create(path)
	if err != nil {
		return nil, err
	}
	return slowFile{File: f, d: s.d}, nil
}

func (s slowFS) OpenAppend(path string) (File, error) {
	f, err := osFS{}.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return slowFile{File: f, d: s.d}, nil
}

func (s slowFS) Rename(oldpath, newpath string) error {
	return osFS{}.Rename(oldpath, newpath)
}

// TestOverloadNeverShedsControlFrames floods a one-slot queue drained
// through a slow writer: data chunks are shed with CodeOverloaded as
// designed, but the thread seal and the BYE must ride out the
// congestion — they carry the run's seal state and the client's final
// accounting, and shedding them would leave the run incomplete
// forever.
func TestOverloadNeverShedsControlFrames(t *testing.T) {
	faketime.Run(t, func(t *testing.T) {
		srv, dial := servePipe(t, Options{
			Dir:              t.TempDir(),
			QueueDepth:       1,
			BackpressureWait: time.Millisecond,
			FS:               slowFS{d: 5 * time.Millisecond},
		})
		defer srv.Close()

		tc, _ := greet(t, dial(), "flood", 0)
		defer tc.close()

		block := traceBlock(t, 0, 8)
		overloaded := 0
		var seq uint64
		for i := 0; i < 60; i++ {
			seq++
			ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: seq, Thread: 0, Samples: 8, Block: block}))
			switch ack.Code {
			case CodeOK:
			case CodeOverloaded:
				overloaded++
			default:
				t.Fatalf("chunk %d ack = %+v", seq, ack)
			}
		}
		if overloaded == 0 {
			t.Fatal("the flood never overflowed the queue; the test exercised nothing")
		}

		seq++
		if ack := tc.send(MsgSeal, EncodeSeal(Seal{Seq: seq, Thread: 0})); ack.Code != CodeOK {
			t.Fatalf("seal shed under load: ack = %+v", ack)
		}
		seq++
		if ack := tc.send(MsgBye, EncodeBye(Bye{Seq: seq, Produced: 60, Dropped: uint64(overloaded)})); ack.Code != CodeOK {
			t.Fatalf("BYE shed under load: ack = %+v", ack)
		}
		// The BYE is acked once queued; the slow writer still has a few
		// 5ms writes to go, far less than this second of fake time.
		time.Sleep(time.Second)
		for _, ri := range srv.Runs() {
			if ri.ID != "flood" {
				continue
			}
			if !ri.Complete || ri.SealedThreads != 1 {
				t.Fatalf("run not complete after its BYE: complete=%v, %d sealed threads", ri.Complete, ri.SealedThreads)
			}
			if ri.DroppedChunks != uint64(overloaded) {
				t.Errorf("server counted %d shed chunks, client saw %d overloaded acks",
					ri.DroppedChunks, overloaded)
			}
			if ri.ClientDropped != uint64(overloaded) {
				t.Errorf("BYE accounting did not land: manifest dropped = %d, want %d",
					ri.ClientDropped, overloaded)
			}
		}
	})
}
