package tool

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goomp/internal/ingest"
	"goomp/internal/omp"
	"goomp/internal/perf"
)

// reattacher is the benchmark harness's profiled segment against an
// in-process psxd: attach to a runtime, run regions, detach, and wait
// for the run to be sealed complete, once per cycle, with every cycle
// a run of its own.
type reattacher struct {
	rt   *omp.RT
	srv  *ingest.Server
	dir  string // psxd's data root
	name string
	runs int
}

func newReattacher(tb testing.TB, name string, srv *ingest.Server, dir string) *reattacher {
	rt := omp.New(omp.Config{NumThreads: 2})
	tb.Cleanup(rt.Close)
	return &reattacher{rt: rt, srv: srv, dir: dir, name: name}
}

// serveIngest starts psxd on a loopback port for the test's duration.
func serveIngest(tb testing.TB) (*ingest.Server, string) {
	dir := tb.TempDir()
	srv, err := ingest.Serve("127.0.0.1:0", ingest.Options{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return srv, dir
}

// attach starts the next cycle's run with opts, shipping to psxd.
func (r *reattacher) attach(opts Options) (*Tool, error) {
	r.runs++
	opts.IngestAddr = r.srv.Addr()
	opts.IngestRun = fmt.Sprintf("%s-%d", r.name, r.runs)
	return AttachRuntime(r.rt, opts)
}

func (r *reattacher) regions(n int) {
	for i := 0; i < n; i++ {
		r.rt.Parallel(func(*omp.ThreadCtx) {})
	}
}

// complete detaches tl and waits until psxd has sealed its run, whose
// info it returns with the number of times it read the registry.
func (r *reattacher) complete(tl *Tool) (ingest.RunInfo, uint64, error) {
	tl.Detach()
	run := tl.opts.IngestRun
	deadline := time.Now().Add(10 * time.Second)
	for polls := uint64(1); ; polls++ {
		for _, ri := range r.srv.Runs() {
			if ri.ID == run && ri.Complete {
				return ri, polls, nil
			}
		}
		if time.Now().After(deadline) {
			return ingest.RunInfo{}, polls, fmt.Errorf("run %s never completed", run)
		}
		time.Sleep(time.Millisecond)
	}
}

// cycle is one segment of n regions: a GC first, as the harness runs
// one before every segment, then attach, regions, detach. It returns
// the chunks the sink shipped and the heap allocations the cycle made,
// less those of the registry reads that waited for the run's seal:
// their number depends on how soon psxd seals, and each allocates as
// many times as a read of the same registry does afterwards.
func (r *reattacher) cycle(tb testing.TB, n int) (chunks, mallocs uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tl, err := r.attach(FullMeasurement())
	if err != nil {
		tb.Fatal(err)
	}
	r.regions(n)
	ri, polls, err := r.complete(tl)
	if err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perPoll := uint64(testing.AllocsPerRun(3, func() { r.srv.Runs() }))
	rep := tl.Report()
	if err := tl.StreamError(); err != nil || ri.Chunks != rep.IngestProducedChunks || rep.IngestShippedChunks != ri.Chunks {
		tb.Fatalf("cycle %d: psxd stored %d of %d chunks, %d acked; %v", r.runs, ri.Chunks, rep.IngestProducedChunks, rep.IngestShippedChunks, err)
	}
	return ri.Chunks, after.Mallocs - before.Mallocs - min(polls*perPoll, after.Mallocs-before.Mallocs)
}

// warm is a cycle of n regions whose streamer encodes nothing until the
// last region has run, so that every chunk the cycle seals is out at
// once: the chunk reserve then holds as many chunks as a cycle of n
// regions can have out, however its streamer is scheduled, and the
// blocks reach psxd in one burst.
func (r *reattacher) warm(tb testing.TB, n int) {
	hold := make(chan struct{})
	opts := FullMeasurement()
	opts.DropChunk = func(int32, int) bool { <-hold; return false }
	tl, err := r.attach(opts)
	if err != nil {
		tb.Fatal(err)
	}
	r.regions(n)
	close(hold)
	if _, _, err := r.complete(tl); err != nil {
		tb.Fatal(err)
	}
}

// TestAllocReattach: chunks, stack tables, arenas, encoded blocks and
// psxd's frame bodies outlive an attachment and a GC, so a warm cycle's
// allocations are what attaching and detaching cost, and do not grow
// with the chunks the cycle streams: 64 chunks and 8 differ by less
// than one allocation a chunk. One warm cycle of 64 chunks comes
// first. Each size is taken as the least of three cycles, and the
// registry reads that wait for the sealed run are counted out, so that
// how often that wait polls does not count.
func TestAllocReattach(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	srv, dir := serveIngest(t)
	r := newReattacher(t, "alloc", srv, dir)
	const probe = 1000
	got, _ := r.cycle(t, probe)
	perChunk := probe / int(got)
	r.warm(t, 64*perChunk)
	measure := func(chunks int) (c, m uint64) {
		m = ^uint64(0)
		for range 3 {
			cc, mm := r.cycle(t, chunks*perChunk)
			c, m = cc, min(m, mm)
		}
		return c, m
	}
	c8, m8 := measure(8)
	c64, m64 := measure(64)
	t.Logf("%d chunks: %d allocations; %d chunks: %d", c8, m8, c64, m64)
	if m64 > m8 && m64-m8 >= c64-c8 {
		t.Fatalf("%d chunks allocate %d times and %d chunks %d: %.2f allocations a chunk, want fewer than 1",
			c8, m8, c64, m64, float64(m64-m8)/float64(c64-c8))
	}
}

// BenchmarkReattach times one profiled segment against an in-process
// psxd — a GC, attach, 200 regions on two threads, detach, the run
// sealed — and reports what it allocates.
func BenchmarkReattach(b *testing.B) {
	srv, dir := serveIngest(b)
	r := newReattacher(b, "bench", srv, dir)
	r.cycle(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		r.cycle(b, 200)
	}
}

// TestAllocAckReader: the client's ack reader reads every ack into one
// body, so reading a connection's acks allocates the same few times
// however many there are.
func TestAllocAckReader(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	var frames bytes.Buffer
	for seq := uint64(1); seq <= 200; seq++ {
		ingest.WriteFrame(&frames, ingest.MsgAck, ingest.EncodeAck(ingest.Ack{Seq: seq}))
	}
	src := bytes.NewReader(frames.Bytes())
	br := bufio.NewReader(src)
	read := func() {
		src.Reset(frames.Bytes())
		br.Reset(src)
		w := &wire{acks: make(chan ingest.Ack, 200)}
		w.readAcks(br)
		if len(w.acks) != 200 {
			t.Fatalf("%d acks read, want 200", len(w.acks))
		}
	}
	read()
	if avg := testing.AllocsPerRun(20, read); avg > 3 {
		t.Fatalf("reading 200 acks allocates %.1f times, want at most 3 (the channel, and one body made and grown once)", avg)
	}
}

// TestRetainedBoundBlocks: the process's block pool keeps no buffer
// over maxPooledBlock, so it holds at most the 4 MiB DESIGN.md states,
// and a sink with no streamer hands nothing to it.
func TestRetainedBoundBlocks(t *testing.T) {
	drainBlocks()
	for _, size := range []int{1 << 10, 4 * maxPooledBlock, 3 << 10} {
		blocks.Put(make([]byte, size))
	}
	n := newNetSink(&Options{}, nil)
	n.ship(0, 1, make([]byte, 64), -1)
	for it, ok := n.next(); ok; it, ok = n.next() {
		n.settle(&it, ingest.CodeOK)
	}
	held, total := 0, 0
	for _, b := range drainBlocks() {
		held++
		total += cap(b)
		if cap(b) > maxPooledBlock {
			t.Fatalf("the block pool keeps a %d B buffer", cap(b))
		}
	}
	for k := -1; k < blocks.Len(); { // fill it with the largest buffers it keeps
		k = blocks.Len()
		blocks.Put(make([]byte, 0, maxPooledBlock))
	}
	capacity := len(drainBlocks())
	if held != 2 || capacity*maxPooledBlock > 4<<20 {
		t.Fatalf("the block pool holds %d buffers (%d B), want the 2 small ones; bound %d B", held, total, capacity*maxPooledBlock)
	}
}

// drainBlocks takes every buffer out of the process's block pool.
func drainBlocks() [][]byte {
	var out [][]byte
	for blocks.Len() > 0 {
		out = append(out, blocks.Get())
	}
	return out
}

// TestNetSinkWithoutStreamerKeepsNoBlocks: a sink with no streamer has
// a nil free list, so the blocks a caller ships through it, which the
// caller still owns, never reach the process's block pool.
func TestNetSinkWithoutStreamerKeepsNoBlocks(t *testing.T) {
	drainBlocks()
	n := newNetSink(&Options{}, nil)
	for i := 0; i < 300; i++ {
		n.ship(0, 1, make([]byte, 64), -1)
		it, ok := n.next()
		if !ok {
			t.Fatalf("block %d was not sent", i)
		}
		n.acked(ingest.Ack{Seq: it.seq, Code: ingest.CodeOK})
	}
	if got, _ := n.led.Settled(shipped); got != 300 {
		t.Fatalf("%d of 300 blocks shipped", got)
	}
	if k := blocks.Len(); k != 0 {
		t.Fatalf("a sink with no streamer put %d of its caller's blocks in the process's pool", k)
	}
}

// failingFile fails every write while fail is set, writing nothing.
type failingFile struct {
	*os.File
	fail *atomic.Bool
}

func (f failingFile) Write(p []byte) (int, error) {
	if f.fail.Load() {
		return 0, errors.New("injected write failure")
	}
	return f.File.Write(p)
}

// TestReattachOwnership: two runtimes attach, record and detach twenty
// times each, at once, every attachment teeing its blocks to a local
// directory and to one psxd. Thread 0's trace file fails its writes
// until the detach, so its blocks wait in the file sink's retained
// backlog while psxd acks them; the attachment then records more. A
// reader meanwhile calls Samples and Len on each runtime's live
// buffers and on its previous attachment's detached ones. Chunks and
// block buffers pass between the attachments through the process's
// pools, so a chunk recycled while a reader holds it, a detached
// buffer that still lists a recycled chunk, or a retained block handed
// back early shows up as a race, a sample of another thread, a
// detached buffer that is not empty, or a run directory that is not
// byte-identical to its tee. Every ledger must balance.
func TestReattachOwnership(t *testing.T) {
	const cycles = 20
	srv, dir := serveIngest(t)
	type published struct {
		live, detached []threadBuf
	}
	var bufs [2]atomic.Pointer[published]
	for i := range bufs {
		bufs[i].Store(&published{})
	}
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range bufs {
				p := bufs[i].Load()
				for _, tb := range p.live {
					for _, s := range tb.buf.Samples() {
						if s.Thread != tb.id {
							t.Errorf("thread %d's buffer holds a sample of thread %d", tb.id, s.Thread)
							return
						}
					}
					tb.buf.Len()
				}
				for _, tb := range p.detached {
					if n, m := tb.buf.Len(), len(tb.buf.Samples()); n != 0 || m != 0 {
						t.Errorf("a detached buffer of thread %d holds %d samples", tb.id, max(n, m))
						return
					}
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i := range bufs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := newReattacher(t, fmt.Sprintf("own%d", i), srv, dir)
			var detached []threadBuf
			for range cycles {
				var fail atomic.Bool
				fail.Store(true)
				local := t.TempDir()
				opts := FullMeasurement()
				opts.StreamDir = local
				opts.OpenTraceFile = func(path string) (io.WriteCloser, error) {
					f, err := os.Create(path)
					if err != nil || filepath.Base(path) != "trace.0.psxt" {
						return f, err
					}
					return failingFile{f, &fail}, nil
				}
				tl, err := r.attach(opts)
				if err != nil {
					t.Error(err)
					return
				}
				r.regions(300)
				live := tl.snapshotBuffers()
				bufs[i].Store(&published{live: live, detached: detached})
				for deadline := time.Now().Add(10 * time.Second); ; {
					rep := tl.Report()
					if rep.IngestProducedChunks > 0 && rep.IngestShippedChunks == rep.IngestProducedChunks {
						break
					}
					if time.Now().After(deadline) {
						t.Error("psxd never acked every chunk")
						return
					}
					time.Sleep(time.Millisecond)
				}
				r.regions(300) // encoded into buffers the acks handed back
				fail.Store(false)
				ri, _, err := r.complete(tl)
				if err != nil {
					t.Error(err)
					return
				}
				for _, tb := range live {
					if n := tb.buf.Len(); n != 0 {
						t.Errorf("%s: thread %d's buffer holds %d samples after Detach", ri.ID, tb.id, n)
					}
				}
				detached = live
				bufs[i].Store(&published{detached: detached})

				rep := tl.Report()
				if err := tl.StreamError(); err != nil && strings.Contains(err.Error(), "ledger") {
					t.Errorf("%s: %v", ri.ID, err)
				}
				if ri.Chunks != rep.IngestProducedChunks || ri.Unstored != nil || rep.StreamDiscardedChunks != 0 {
					t.Errorf("%s: psxd stored %d of %d chunks (unstored %v), %d discarded", ri.ID, ri.Chunks, rep.IngestProducedChunks, ri.Unstored, rep.StreamDiscardedChunks)
				}
				files, err := perf.FindTraceFiles(local)
				if err != nil || len(files) != 2 {
					t.Errorf("%s: %d local trace files, %v", ri.ID, len(files), err)
				}
				for _, path := range files {
					a, _ := os.ReadFile(path)
					b, err := os.ReadFile(filepath.Join(dir, ri.ID, filepath.Base(path)))
					if err != nil || !bytes.Equal(a, b) {
						t.Errorf("%s: psxd's %s (%d B) is not the tee's (%d B): %v", ri.ID, filepath.Base(path), len(b), len(a), err)
					}
				}
				if t.Failed() {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
}
