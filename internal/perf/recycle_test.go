package perf

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Samples of the recycle test say in Event how they were recorded, and
// the stacked kinds carry a stack the reader can check against the
// sample alone.
const (
	evPlain   = 0
	evPath    = 1 // AppendCallstack through Time%5 extra frames
	evStacked = 2 // AppendStacked with the one-PC stack {Time}
)

// nest calls f under depth extra frames, so one AppendCallstack line
// yields call paths of several lengths.
//
//go:noinline
func nest(depth int, f func()) {
	if depth == 0 {
		f()
		return
	}
	nest(depth-1, f)
}

// checkSnapshot verifies one decoded snapshot or chunk of the recycle
// test: times strictly increasing (a chunk seen half-reset mixes an
// earlier fill with a later one), every stacked sample resolvable, an
// evStacked stack equal to {Time}, and an evPath stack exactly as much
// longer than the shortest path as its sample says (an arena seen while
// it is refilled holds another path's PCs, or zeros).
func checkSnapshot(tb *Trace, pathBase *int) error {
	last := int64(-1)
	for _, s := range tb.Samples() {
		if s.Time <= last {
			return fmt.Errorf("time %d after %d", s.Time, last)
		}
		last = s.Time
		if s.Event == evPlain {
			continue
		}
		st := tb.Stack(s.StackID)
		if len(st) == 0 || slices.Contains(st, 0) {
			return fmt.Errorf("sample %d (event %d): stack %d = %v", s.Time, s.Event, s.StackID, st)
		}
		switch s.Event {
		case evStacked:
			if len(st) != 1 || st[0] != uintptr(s.Time) {
				return fmt.Errorf("sample %d: AppendStacked stack = %v", s.Time, st)
			}
		case evPath:
			base := len(st) - int(s.Time%5)
			if *pathBase == 0 {
				*pathBase = base
			}
			if base != *pathBase {
				return fmt.Errorf("sample %d: path of %d frames, want %d", s.Time, len(st), *pathBase+int(s.Time%5))
			}
		}
	}
	return nil
}

// TestRecycleWhileScraping drives the whole recycle protocol under the
// race detector: writers append through a small relay, the consumer
// encodes every sealed chunk, checks it and releases it, and scrapers
// loop over every reader entry point meanwhile. Every snapshot must be
// consistent in itself, every sample must be accounted for exactly
// once, and chunks must in fact have been reused.
func TestRecycleWhileScraping(t *testing.T) {
	const writers, perWriter = 2, 150 * ChunkSamples
	relay := NewRelay(8)
	bufs := make([]*TraceBuffer, writers)
	for i := range bufs {
		bufs[i] = NewRelayBuffer(relay, int32(i), 0)
	}

	var consumed [writers]int
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		var enc BlockEncoder
		var pathBase int
		for sc := range relay.C {
			block, err := enc.AppendChunk(nil, sc, false)
			n, thread := sc.Len(), sc.Thread()
			sc.Release() // the handle is the chunk's: read nothing of it after this
			if err != nil {
				t.Errorf("encode: %v", err)
				continue
			}
			tb, err := ReadTraceStream(bytes.NewReader(block))
			if err != nil || tb.Len() != n || n != ChunkSamples {
				t.Errorf("sealed chunk: %d samples, decoded %d, %v", n, tb.Len(), err)
				continue
			}
			if err := checkSnapshot(tb, &pathBase); err != nil {
				t.Errorf("sealed chunk of thread %d: %v", thread, err)
			}
			consumed[thread] += n
		}
	}()

	var stop atomic.Bool
	var scrapers sync.WaitGroup
	for g := 0; g < 2; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			var pathBase int
			var out bytes.Buffer
			for !stop.Load() {
				for _, b := range bufs {
					last := int64(-1)
					ss := b.Samples()
					for _, s := range ss {
						if s.Time <= last {
							t.Errorf("Samples: time %d after %d", s.Time, last)
							return
						}
						last = s.Time
					}
					if n := b.Len(); n < 0 || n > ChunkSamples {
						t.Errorf("Len = %d", n)
					}
					out.Reset()
					if err := WriteTraceEnc(&out, b, Encoding{V2: true}); err != nil {
						t.Errorf("WriteTraceEnc: %v", err)
						return
					}
					tb, err := ReadTraceStream(&out)
					if err == nil {
						err = checkSnapshot(tb, &pathBase)
					}
					if err != nil {
						t.Errorf("snapshot: %v", err)
						return
					}
				}
				time.Sleep(50 * time.Microsecond) // readers == 0 now and then
			}
		}()
	}

	// A writer may look at its own buffer's active chunk: count the
	// chunks that become active a second time, in either buffer.
	var activated sync.Map
	var reused atomic.Int32
	var appenders sync.WaitGroup
	for _, b := range bufs {
		appenders.Add(1)
		go func() {
			defer appenders.Done()
			var cur *chunk
			for i := 1; i <= perWriter; i++ {
				if b.active != cur {
					cur = b.active
					if _, again := activated.LoadOrStore(cur, true); again {
						reused.Add(1)
					}
				}
				s := Sample{Time: int64(i), StackID: NoStack}
				switch {
				case i%3 == 0:
					s.Event = evPath
					nest(i%5, func() { b.AppendCallstack(s, 0) })
				case i%7 == 0:
					s.Event = evStacked
					b.AppendStacked(s, []uintptr{uintptr(i)})
				default:
					b.Append(s)
				}
			}
		}()
	}
	appenders.Wait()
	stop.Store(true)
	scrapers.Wait()
	close(relay.C)
	<-consumerDone

	for i, b := range bufs {
		if got := consumed[i] + b.Len() + int(b.Dropped()); got != perWriter {
			t.Errorf("thread %d: %d encoded + %d resident + %d dropped = %d, want %d",
				i, consumed[i], b.Len(), b.Dropped(), got, perWriter)
		}
	}
	if reused.Load() == 0 {
		t.Error("no sealed chunk was ever filled a second time")
	}
}

// TestAppendCallstackDedup: a call path is stored once per chunk, and
// per chunk — the next chunk stores it again, so each stays
// self-contained; a hit counts 1 toward the limit, not 2.
func TestAppendCallstackDedup(t *testing.T) {
	b := NewTraceBuffer(2*ChunkSamples, 0)
	for i := 0; i < 100; i++ {
		b.AppendCallstack(Sample{Time: int64(i)}, 0)
	}
	if got := b.NumStacks(); got != 1 {
		t.Fatalf("one path, 100 times: %d stacks, want 1", got)
	}
	for i := 100; i < 200; i++ {
		if i%2 == 0 {
			b.AppendCallstack(Sample{Time: int64(i)}, 0)
		} else {
			b.AppendCallstack(Sample{Time: int64(i)}, 0)
		}
	}
	if got := b.NumStacks(); got != 3 {
		t.Fatalf("two more paths, alternating: %d stacks, want 3", got)
	}
	ss := b.Samples()
	for i := 100; i < 200; i++ {
		if want := int32(1 + i%2); ss[i].StackID != want {
			t.Fatalf("sample %d: stack %d, want %d", i, ss[i].StackID, want)
		}
	}
	for i := 200; i < ChunkSamples+10; i++ {
		b.AppendCallstack(Sample{Time: int64(i)}, 0)
	}
	if got := b.NumStacks(); got != 5 {
		t.Fatalf("a fourth path, into the next chunk: %d stacks, want 5", got)
	}
	ss = b.Samples()
	if a, z := ss[ChunkSamples-1].StackID, ss[ChunkSamples].StackID; a != 3 || z != 4 ||
		!slices.Equal(b.Stack(a), b.Stack(z)) {
		t.Fatalf("across the chunk boundary: stacks %d and %d, want 3 and 4 with equal PCs", a, z)
	}

	limited := NewTraceBuffer(0, 5) // the path costs 1, each sample 1
	for i := 0; i < 10; i++ {
		limited.AppendCallstack(Sample{Time: int64(i)}, 0)
	}
	if limited.Len() != 4 || limited.NumStacks() != 1 || limited.Dropped() != 6 {
		t.Fatalf("at the limit: %d samples, %d stacks, %d dropped; want 4, 1, 6",
			limited.Len(), limited.NumStacks(), limited.Dropped())
	}
}

// TestAppendCallstackStartsAtSite: a sample whose Site is a return PC
// on the walk — a join's region site — is stored from that frame on,
// without the frames the walk started in; a Site that is not on the
// walk keeps the whole walk; either way at most callstackDepth frames
// are kept, however deep the stack.
func TestAppendCallstackStartsAtSite(t *testing.T) {
	b := NewTraceBuffer(ChunkSamples, 0)
	record := func(depth int) (walk []uintptr) {
		nest(depth, func() {
			walk = Callstack(0, 4*callstackDepth)
			// walk[0] is this line, walk[1] nest's call of us, walk[2]
			// the call of nest that made the frame under it.
			b.AppendCallstack(Sample{Site: uint64(walk[2])}, 0)
			b.AppendCallstack(Sample{Site: 1}, 0)
		})
		return walk
	}
	for _, depth := range []int{1, callstackDepth + 8} {
		b.Reset()
		walk := record(depth)
		at, whole := b.Stack(0), b.Stack(1)
		if want := walk[2:][:min(len(walk)-2, callstackDepth)]; !slices.Equal(at, want) {
			t.Errorf("depth %d: stored from the site %x, want %x", depth, at, want)
		}
		if want := walk[:min(len(walk), callstackDepth)]; whole[0] == walk[0] || !slices.Equal(whole[1:], want[1:]) {
			t.Errorf("depth %d: a site off the walk stored %x, want %x but for its first PC", depth, whole, want)
		}
	}
}

//go:noinline
func via0(f func()) { f() }

//go:noinline
func via1(f func()) { f() }

//go:noinline
func via2(f func()) { f() }

// TestDedupBlocksByteIdentical: the PSX2 writer builds its dictionary
// in order of first appearance, so storing a call path once per chunk
// changes the chunk and not one byte of the block.
func TestDedupBlocksByteIdentical(t *testing.T) {
	const n = 3*ChunkSamples + 40
	vias := []func(func()){via0, via1, via2}
	for _, deflate := range []bool{false, true} {
		var streams [2][]byte
		var stored [2]int
		// One call site for both recordings: the frames above the via
		// function are the same.
		for mode := range streams {
			relay := NewRelay(8)
			b := NewRelayBuffer(relay, 3, 0)
			for i := 0; i < n; i++ {
				s := Sample{Time: int64(i) * 900, Thread: 3, Event: int32(i % 4), Region: uint64(i / 4), StackID: NoStack}
				if i%4 != 3 {
					b.Append(s)
					continue
				}
				vias[i/4%3](func() {
					if mode == 0 {
						b.AppendCallstack(s, 1)
					} else {
						b.AppendStacked(s, Callstack(1, callstackDepth))
					}
				})
			}
			close(relay.C)
			var enc BlockEncoder
			var out bytes.Buffer
			for sc := range relay.C {
				stored[mode] += int(sc.c.nStacks.Load())
				block, err := enc.AppendChunk(nil, sc, deflate)
				if err != nil {
					t.Fatal(err)
				}
				out.Write(block)
			}
			if err := WriteTraceEnc(&out, b, Encoding{V2: true, Flate: deflate}); err != nil {
				t.Fatal(err)
			}
			streams[mode] = out.Bytes()
		}
		if stored[0] != 3*3 || stored[1] != 3*ChunkSamples/4 {
			t.Fatalf("stacks stored in the sealed chunks: %d and %d, want 9 and %d", stored[0], stored[1], 3*ChunkSamples/4)
		}
		if !bytes.Equal(streams[0], streams[1]) {
			t.Fatalf("deflate=%v: AppendCallstack stream (%d B) differs from AppendStacked stream (%d B)",
				deflate, len(streams[0]), len(streams[1]))
		}
		tb, err := ReadTraceStream(bytes.NewReader(streams[0]))
		if err != nil || tb.Len() != n {
			t.Fatalf("deflate=%v: read back %d samples, %v", deflate, tb.Len(), err)
		}
	}
}
