package tool

import (
	"os"
	"sync"

	"goomp/internal/ingest"
	"goomp/internal/perf"
)

// Store-and-forward spill: when the psxd daemon is unreachable (or
// slow) past the in-memory pending queue, the network sink parks frames
// in the spill instead of dropping them, and replays them in sequence
// order once the connection comes back. An outage longer than the queue
// then degrades to disk, not to loss.
//
// The spill writes nothing. It is armed only when a file sink sits
// behind the network sink, and every block the network sink ships has
// already been appended to its thread's trace file — the same staged
// bytes. So a parked chunk is an index entry: its header fields plus
// where its block sits in that file. Replay preads the block and checks
// it with perf.BlockSamples (PSX2 extent, payload CRC, declared count);
// a block that fails is handed back without one, to be settled as lost.
// A chunk whose file write failed (a degraded thread) has no offset and
// cannot be parked.
//
// Concurrency: the writer is the streamer goroutine (through ship and
// seal), the reader is the sink's sender goroutine. A mutex protects the
// index queue; the read handles are the sender's alone, and close runs
// only after the sender has exited.

// defaultSpillBytes bounds the parked block bytes when
// Options.SpillBytes is zero.
const defaultSpillBytes = 64 << 20

// spillEntry is one parked frame — its header fields, marked spilled,
// the block left in the trace file — and the block's length there.
type spillEntry struct {
	netItem
	length int
}

// spillIndex is the bounded index of parked frames.
type spillIndex struct {
	dir      string
	maxBytes int64
	files    map[int32]*os.File // one read handle per thread, opened at first replay

	mu     sync.Mutex
	queue  []spillEntry
	bytes  int64 // block bytes parked
	closed bool

	spilledChunks  uint64 // cumulative chunks ever spilled
	spilledSamples uint64
}

// newSpillIndex indexes into the trace files the file sink writes in
// dir.
func newSpillIndex(dir string, maxBytes int64) *spillIndex {
	if maxBytes <= 0 {
		maxBytes = defaultSpillBytes
	}
	return &spillIndex{dir: dir, maxBytes: maxBytes, files: make(map[int32]*os.File)}
}

// add parks one frame. It reports whether the frame was accepted; false
// means the chunk is not on local disk or the bound is reached, and the
// caller must account the frame as dropped. Control frames hold no
// block and cost nothing against the bound, so a SEAL is never refused.
func (l *spillIndex) add(it *netItem) bool {
	e := spillEntry{netItem: *it, length: len(it.block)}
	e.block, e.spilled = nil, true
	if it.kind == ingest.MsgChunk && it.off < 0 {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.bytes+int64(e.length) > l.maxBytes {
		return false
	}
	l.bytes += int64(e.length)
	l.queue = append(l.queue, e)
	// A frame re-parked at shutdown after it already took the spill
	// detour once (popped, sent, never acked) keeps its original count.
	if it.kind == ingest.MsgChunk && !it.spilled {
		l.spilledChunks++
		l.spilledSamples += uint64(it.samples)
	}
	return true
}

// next pops the oldest parked frame, reading and checking its block;
// nil means the spill is empty. intact false is a chunk whose block
// could not be read back whole: it is returned without a block so the
// caller can settle it as lost, and the caller asks again for the one
// after.
func (l *spillIndex) next() (it *netItem, intact bool) {
	l.mu.Lock()
	if len(l.queue) == 0 {
		l.mu.Unlock()
		return nil, false
	}
	e := l.queue[0]
	l.queue = l.queue[1:]
	l.bytes -= int64(e.length)
	l.mu.Unlock()
	it = &e.netItem
	if it.kind != ingest.MsgChunk {
		return it, true
	}
	block := make([]byte, e.length)
	if f := l.file(it.thread); f != nil {
		if _, err := f.ReadAt(block, it.off); err == nil {
			n, err := perf.BlockSamples(block)
			intact = err == nil && n == uint64(it.samples)
		}
	}
	if intact {
		it.block = block
	}
	return it, intact
}

// file returns the thread's read handle, opening it on first use; nil
// means the trace file cannot be opened.
func (l *spillIndex) file(thread int32) *os.File {
	if f := l.files[thread]; f != nil {
		return f
	}
	f, err := os.Open(tracePath(l.dir, thread))
	if err != nil {
		return nil
	}
	l.files[thread] = f
	return f
}

// pending returns the number of parked frames.
func (l *spillIndex) pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}

// pendingCounts returns the parked chunk frames and their samples —
// the spilled-pending term of the conservation equation.
func (l *spillIndex) pendingCounts() (chunks, samples uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.queue {
		if e.kind == ingest.MsgChunk {
			chunks++
			samples += uint64(e.samples)
		}
	}
	return chunks, samples
}

// stats returns cumulative spill accounting.
func (l *spillIndex) stats() (spilledChunks, spilledSamples uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spilledChunks, l.spilledSamples
}

// close releases the read handles and refuses further frames. What is
// still parked stays in the trace files and in the index, accounted as
// spilled-pending.
func (l *spillIndex) close() {
	for _, f := range l.files {
		f.Close()
	}
	l.files = nil
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}
