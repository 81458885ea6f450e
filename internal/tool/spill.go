package tool

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"goomp/internal/ingest"
)

// Store-and-forward spill: when the psxd daemon is unreachable (or
// slow) past the in-memory pending queue, the network sink spills
// frames to a bounded on-disk segment log instead of dropping them,
// and replays them in sequence order once the connection comes back.
// An outage longer than the queue then degrades to disk, not to loss.
//
// The log follows the journal discipline of the ingest daemon's
// durable storage: append-only segments, every entry CRC-guarded, a
// reader that drops a corrupt entry instead of trusting it. It is
// deliberately simpler than the daemon's journal in one way — it is a
// queue for this process's lifetime, not cross-restart durability:
// entries that are still pending at shutdown remain on disk (and are
// accounted as spilled-pending, never silently lost), but a new run
// never replays another process's leftovers.
//
// Concurrency: the writer is the streamer goroutine (through ship and
// seal), the reader is the sink's sender goroutine. A mutex protects
// the descriptor queue and segment table; the descriptor for an entry
// is published only after its Write call has returned, so the reader's
// pread never observes a partially written entry.

const (
	// spillSegBytes rotates segments so consumed data is reclaimed
	// incrementally: a segment's file is deleted as soon as the writer
	// has rotated past it and the reader has drained its entries.
	spillSegBytes = 4 << 20

	// defaultSpillBytes bounds the pending backlog when
	// Options.SpillBytes is zero.
	defaultSpillBytes = 64 << 20

	spillMagic   = "PSXL"
	spillVersion = 1

	// spillEntryHeader is kind(1) + seq(8) + thread(4) + samples(4) +
	// length(4), followed by crc(4) over header+block, then the block.
	spillEntryHeader = 21
)

// spillSeg is one on-disk segment file.
type spillSeg struct {
	path   string
	f      *os.File
	size   int64
	refs   int  // pending entries still referencing this segment
	sealed bool // writer rotated past it; delete when refs hits 0
}

// spillEntry is one parked frame — its header fields, marked spilled,
// the block left on disk — and where in which segment the block is.
type spillEntry struct {
	netItem
	seg    *spillSeg
	off    int64 // offset of the block bytes (past header+crc)
	length uint32
}

// spillLog is the bounded segment log.
type spillLog struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	cur     *spillSeg
	nextIdx int
	queue   []spillEntry
	bytes   int64 // payload bytes pending on disk
	failed  error // first disk failure; spill refuses further adds

	spilledChunks  uint64 // cumulative chunks ever spilled
	spilledSamples uint64
}

// newSpillLog opens (creating) the spill directory. Existing segment
// files from an earlier process are left alone; numbering continues
// past them so nothing is clobbered.
func newSpillLog(dir string, maxBytes int64) (*spillLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tool: spill dir: %w", err)
	}
	if maxBytes <= 0 {
		maxBytes = defaultSpillBytes
	}
	l := &spillLog{dir: dir, maxBytes: maxBytes}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tool: spill dir: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "spill-") || !strings.HasSuffix(name, ".psxl") {
			continue
		}
		if n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "spill-"), ".psxl")); err == nil && n >= l.nextIdx {
			l.nextIdx = n + 1
		}
	}
	return l, nil
}

// add appends one frame to the log. It reports whether the frame was
// accepted; false means the log is full or its disk has failed, and
// the caller must account the frame as dropped.
func (l *spillLog) add(it *netItem) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return false
	}
	need := int64(spillEntryHeader+4) + int64(len(it.block))
	if l.bytes+need > l.maxBytes {
		return false
	}
	seg, err := l.segmentLocked()
	if err != nil {
		l.failed = err
		return false
	}
	var hdr [spillEntryHeader + 4]byte
	hdr[0] = it.kind
	binary.LittleEndian.PutUint64(hdr[1:], it.seq)
	binary.LittleEndian.PutUint32(hdr[9:], uint32(it.thread))
	binary.LittleEndian.PutUint32(hdr[13:], it.samples)
	binary.LittleEndian.PutUint32(hdr[17:], uint32(len(it.block)))
	crc := crc32.ChecksumIEEE(hdr[:spillEntryHeader])
	crc = crc32.Update(crc, crc32.IEEETable, it.block)
	binary.LittleEndian.PutUint32(hdr[spillEntryHeader:], crc)
	off := seg.size
	if _, err := seg.f.Write(hdr[:]); err != nil {
		l.failed = err
		return false
	}
	if _, err := seg.f.Write(it.block); err != nil {
		// The entry is torn on disk; the descriptor is never published,
		// so the reader will not touch it. The segment stays usable: the
		// next entry's descriptor carries its own offset past the tear.
		l.failed = err
		return false
	}
	seg.size = off + need
	seg.refs++
	l.bytes += need
	e := spillEntry{netItem: *it, seg: seg, off: off + spillEntryHeader + 4, length: uint32(len(it.block))}
	e.block, e.spilled = nil, true
	l.queue = append(l.queue, e)
	// A frame re-parked at shutdown after it already took the spill
	// detour once (popped, sent, never acked) keeps its original count.
	if it.kind == ingest.MsgChunk && !it.spilled {
		l.spilledChunks++
		l.spilledSamples += uint64(it.samples)
	}
	if seg.size >= spillSegBytes {
		seg.sealed = true
		l.cur = nil
	}
	return true
}

// segmentLocked returns the writer's open segment, rotating as needed.
func (l *spillLog) segmentLocked() (*spillSeg, error) {
	if l.cur != nil {
		return l.cur, nil
	}
	path := filepath.Join(l.dir, fmt.Sprintf("spill-%06d.psxl", l.nextIdx))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var hdr [5]byte
	copy(hdr[:], spillMagic)
	hdr[4] = spillVersion
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	l.cur = &spillSeg{path: path, f: f, size: int64(len(hdr))}
	l.nextIdx++
	return l.cur, nil
}

// next pops the oldest pending frame, reading and CRC-verifying its
// block; nil means the log is empty. intact false is an entry that
// failed its read or CRC: it is returned without a block so the caller
// can settle it as lost, and the caller asks again for the one after.
func (l *spillLog) next() (it *netItem, intact bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.queue) == 0 {
		return nil, false
	}
	e := l.queue[0]
	l.queue = l.queue[1:]
	l.bytes -= int64(spillEntryHeader+4) + int64(e.length)
	it = &e.netItem
	block := make([]byte, e.length)
	var hdr [spillEntryHeader + 4]byte
	if _, err := e.seg.f.ReadAt(hdr[:], e.off-spillEntryHeader-4); err == nil {
		if _, err := e.seg.f.ReadAt(block, e.off); err == nil || e.length == 0 {
			crc := crc32.ChecksumIEEE(hdr[:spillEntryHeader])
			crc = crc32.Update(crc, crc32.IEEETable, block)
			intact = crc == binary.LittleEndian.Uint32(hdr[spillEntryHeader:])
		}
	}
	l.releaseLocked(e.seg)
	if intact {
		it.block = block
	}
	return it, intact
}

// releaseLocked drops one reference; a sealed segment with no pending
// entries is deleted on the spot.
func (l *spillLog) releaseLocked(seg *spillSeg) {
	seg.refs--
	if seg.sealed && seg.refs == 0 {
		seg.f.Close()
		os.Remove(seg.path)
	}
}

// pending returns the number of queued frames.
func (l *spillLog) pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}

// pendingCounts returns the queued chunk frames and their samples —
// the spilled-pending term of the conservation equation.
func (l *spillLog) pendingCounts() (chunks, samples uint64) {
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
func (l *spillLog) stats() (spilledChunks, spilledSamples uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spilledChunks, l.spilledSamples
}

// close releases file handles. Fully consumed segments are removed;
// segments still holding pending entries stay on disk (the
// spilled-pending backlog is evidence, not garbage). The descriptor
// queue stays readable for accounting.
func (l *spillLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur != nil && l.cur.refs == 0 {
		l.cur.f.Close()
		os.Remove(l.cur.path)
	}
	l.cur = nil
	held := make(map[*spillSeg]bool)
	for _, e := range l.queue {
		held[e.seg] = true
	}
	for seg := range held {
		seg.f.Close()
	}
	l.failed = fmt.Errorf("tool: spill log closed")
}
