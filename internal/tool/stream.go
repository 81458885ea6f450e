package tool

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"goomp/internal/freelist"
	"goomp/internal/ingest"
	"goomp/internal/perf"
)

// Streaming trace storage: instead of holding every sample in memory
// until the run ends, each per-thread buffer relays its filled chunks
// over a bounded channel to a writer goroutine that appends them to
// that thread's trace file. This is the "storage phase" of the
// measurement pipeline as a production tool runs it — bounded memory,
// write-behind I/O that never stalls an OpenMP thread (a chunk is
// dropped, with accounting, if the writer falls behind) — and the
// files are read back with perf.ReadTraceStream.
//
// The storage is fault-isolated per thread. Every block is staged in
// memory and written with a single Write call, so a clean failure
// (zero bytes written) is retried with capped backoff — on the writer
// goroutine, never an OpenMP thread — while a partial write marks the
// file torn: appending again would corrupt the readable prefix that
// perf.ReadTraceStream can still recover. A thread whose file fails
// permanently enters degraded mode: its chunks are retained in memory
// (bounded) for one recovery attempt at stop, and whatever still
// cannot be written is discarded with exact chunk/sample accounting.
// One thread's failure never touches another thread's file.

// relayCapacity bounds each attachment's chunk hand-off channel. At
// ChunkSamples samples per chunk this queues up to 64k samples of
// backlog (about 3.6 MB of chunks) before the buffers start dropping;
// with a governor, the relay asks it to step down at three quarters of
// that. It bounds the process's free list of encoded-block buffers
// too, as many as one relay can queue chunks; that list, like perf's
// chunk reserve of the same bound, outlives every attachment, so a
// tool that attaches again starts warm. EXPERIMENTS.md "Pooled teams"
// has the sheds at 64, 128 and 256 on the EPCC workload once joined
// teams are pooled.
const relayCapacity = 256

// degradedRetain bounds the chunks a degraded thread retains in memory
// for the final recovery attempt (~10 KiB per chunk); beyond it chunks
// are discarded with accounting.
const degradedRetain = 64

// The streaming writer's retry policy for transient I/O errors: up to
// streamRetries retries per block, starting at streamBackoff and
// doubling up to the cap.
const (
	streamRetries    = 3
	streamBackoff    = time.Millisecond
	streamBackoffCap = 50 * time.Millisecond
)

// streamFile is the per-thread file state. It is touched only by the
// writer goroutine until stop's wg.Wait establishes the ordering for
// the final flush, so it needs no lock.
type streamFile struct {
	path string
	w    io.WriteCloser
	size int64 // bytes written: the offset of the next block
	err  error // permanent failure; non-nil = degraded mode
	torn bool  // a partial write left a torn block; no further appends
	// retained is the degraded-mode in-memory backlog, replayed once
	// at stop. It holds the originally staged block bytes, not the
	// sealed chunks: a replay must write the exact bytes the network
	// sink already shipped (and the journal already checksummed), and
	// with v2's per-block stack dictionary a re-encode is not
	// guaranteed byte-identical.
	retained []stagedBlock
}

// stagedBlock is one encoded trace block and its sample count (for the
// ledger).
type stagedBlock struct {
	samples uint32
	block   []byte
}

// blocks is the process's free list of encoded-block buffers, every
// streamer's, attachment after attachment: writeChunk and writeResidue
// encode into one, and whichever sink holds a block last hands its
// buffer back (DESIGN.md, "Who owns a staged block"). Get on an empty
// list returns nil for the encoder to grow. An epcc-fine chunk's block
// is under 3 KiB; the list keeps none over maxPooledBlock, so it holds
// at most relayCapacity × 16 KiB = 4 MiB.
const maxPooledBlock = 16 << 10

var blocks = freelist.New(relayCapacity, nil, func(b []byte) bool { return cap(b) <= maxPooledBlock })

// streamer owns the trace files and the chunk-writer goroutine.
//
// The streamer drives up to two sinks from the same staged bytes: the
// local file sink (dir != "") and the network sink (Options.IngestAddr
// set, shipping to a psxd ingestion daemon). With both configured the
// exact block bytes written to the local trace file are also shipped
// on the wire, so the server's per-run directory is byte-identical to
// the local StreamDir, and the trace files are where the network
// sink reads a parked block back. With only the network sink, the
// streamer runs with no file operations at all and the sink's memory
// bound is the whole retention path.
type streamer struct {
	t        *Tool
	dir      string
	fileSink bool     // dir != "": write local per-thread trace files
	net      *netSink // nil unless Options.IngestAddr is set
	relay    *perf.Relay
	enc      perf.BlockEncoder // writer goroutine's; stop's once that has exited
	files    map[int32]*streamFile
	open     func(path string) (io.WriteCloser, error)

	// led books every chunk and residue block the streamer takes:
	// staged == written + discarded (+ passed, when there is no
	// file sink and the network sink's own ledger carries the block).
	led      *ingest.Ledger
	retries  atomic.Uint64 // transient-error retries performed
	degraded atomic.Int64  // threads that entered degraded mode

	errs []error // writer-goroutine private until stop's wg.Wait
	done chan struct{}
	wg   sync.WaitGroup
}

// The streamer's ledger buckets.
const (
	written   ingest.Bucket = iota // on disk in the thread's local trace file
	discarded                      // given up on after retries and the stop-time recovery attempt
	passed                         // no file sink configured: the network sink's ledger answers for it
)

func startStreamer(t *Tool, dir string) (*streamer, error) {
	s, err := newStreamer(t, dir)
	if err != nil {
		return nil, err
	}
	if s.net != nil {
		s.net.start()
	}
	s.wg.Add(1)
	go s.loop()
	return s, nil
}

// newStreamer builds the streamer and its sinks without starting the
// writer goroutine or the network sink's sender.
func newStreamer(t *Tool, dir string) (*streamer, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("tool: stream dir: %w", err)
		}
	}
	s := &streamer{
		t:        t,
		dir:      dir,
		fileSink: dir != "",
		relay:    perf.NewRelay(relayCapacity),
		files:    make(map[int32]*streamFile),
		open:     t.opts.OpenTraceFile,
		led:      ingest.NewLedger("stream staged", "written", "discarded", "passed"),
		done:     make(chan struct{}),
	}
	if t.gov != nil {
		// The relay's high-water mark is backpressure like the net
		// sink's: stepping the ladder down sheds events by class
		// before the full relay sheds them by chunk.
		s.relay.Warn = t.gov.Backpressure
	}
	if t.opts.IngestAddr != "" {
		s.net = newNetSink(&t.opts, t.gov)
		s.net.free = blocks
	}
	if s.open == nil {
		s.open = func(path string) (io.WriteCloser, error) { return os.Create(path) }
	}
	return s, nil
}

func (s *streamer) loop() {
	defer s.wg.Done()
	for {
		select {
		case sc := <-s.relay.C:
			s.writeChunk(sc)
		case <-s.done:
			return
		}
	}
}

// writeChunk encodes one sealed chunk into a pooled buffer and stores
// it. The chunk goes back to its buffer once encoded: the block is the
// one copy the sinks hold.
func (s *streamer) writeChunk(sc *perf.SealedChunk) {
	thread := sc.Thread()
	samples := uint32(sc.Len())
	s.led.Take(samples)
	block, err := s.enc.AppendChunk(blocks.Get()[:0], sc, s.t.opts.TraceCompress)
	sc.Release()
	if err != nil {
		blocks.Put(block)
		// Encoding into memory failing is not a per-file condition a
		// retry can cure: discard with accounting.
		s.discard(samples)
		return
	}
	s.store(thread, stagedBlock{samples: samples, block: block})
}

// store hands one staged block to the sinks. Both see the exact same
// bytes: the server's per-run file and the local trace file stay
// byte-identical. The file comes first, so the network sink is told
// where the block sits in it (−1: not on local disk) and can park it
// by reference. The file is created on first use, and a failure
// degrades only this thread: the block is retained for the stop-time
// recovery attempt (or discarded with accounting once the backlog
// bound is hit). The last sink to hold the block returns its buffer:
// the network sink when there is one, else the file sink once the
// block is written.
func (s *streamer) store(thread int32, blk stagedBlock) {
	off := int64(-1)
	if s.fileSink {
		sf := s.file(thread)
		if sf.err == nil {
			at := sf.size
			if err := s.writeBlock(sf, blk); err != nil {
				s.fail(thread, sf, err)
			} else {
				off = at
			}
		}
		if off < 0 {
			s.retain(sf, blk)
		}
	} else {
		s.led.Settle(passed, blk.samples)
	}
	if s.net != nil {
		s.net.ship(thread, blk.samples, blk.block, off)
	} else if off >= 0 {
		blocks.Put(blk.block)
	}
}

// discard books one block the streamer gives up on.
func (s *streamer) discard(samples uint32) { s.led.Settle(discarded, samples) }

// file returns (creating if needed) the per-thread file state. A
// failed open degrades the thread but still returns usable state so
// its chunks are retained and accounted rather than lost.
func (s *streamer) file(thread int32) *streamFile {
	sf := s.files[thread]
	if sf != nil {
		return sf
	}
	sf = &streamFile{path: tracePath(s.dir, thread)}
	s.files[thread] = sf
	backoff := streamBackoff
	for attempt := 0; ; attempt++ {
		w, err := s.open(sf.path)
		if err == nil {
			sf.w = w
			return sf
		}
		if attempt >= streamRetries {
			s.fail(thread, sf, fmt.Errorf("open: %w", err))
			return sf
		}
		s.retries.Add(1)
		backoff = waitBackoff(s.done, backoff, streamBackoffCap)
	}
}

// writeBlock writes one staged trace block with a single Write call,
// retrying clean failures (zero bytes written) with capped backoff. A
// partial write is not retried: the file now holds a torn block, and
// appending again would corrupt the prefix ReadTraceStream recovers.
// Success is the one place a block is booked as written.
func (s *streamer) writeBlock(sf *streamFile, blk stagedBlock) error {
	backoff := streamBackoff
	for attempt := 0; ; attempt++ {
		n, err := sf.w.Write(blk.block)
		if err == nil {
			sf.size += int64(n)
			s.led.Settle(written, blk.samples)
			return nil
		}
		if n > 0 {
			sf.torn = true
			return fmt.Errorf("torn write (%d/%d bytes): %w", n, len(blk.block), err)
		}
		if attempt >= streamRetries {
			return err
		}
		s.retries.Add(1)
		backoff = waitBackoff(s.done, backoff, streamBackoffCap)
	}
}

// tracePath names a thread's trace file in dir.
func tracePath(dir string, thread int32) string {
	return filepath.Join(dir, fmt.Sprintf("trace.%d.psxt", thread))
}

// waitBackoff waits one backoff step, interruptible by done, and
// returns the next capped step. Shared by the streamer's retry loops
// and the network sink's reconnect loop: a retrying sink must never
// hold Detach hostage to an uninterruptible sleep — once the shutdown
// channel closes, every pending wait collapses immediately and the
// remaining retries run without pause.
func waitBackoff(done <-chan struct{}, backoff, limit time.Duration) time.Duration {
	t := time.NewTimer(backoff)
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
	if next := backoff * 2; next <= limit {
		return next
	}
	return backoff
}

// fail moves a thread's file into degraded mode and records why.
func (s *streamer) fail(thread int32, sf *streamFile, err error) {
	if sf.err == nil {
		s.degraded.Add(1)
	}
	sf.err = err
	s.errs = append(s.errs, fmt.Errorf("tool: stream thread %d: %w", thread, err))
}

// retain holds the staged bytes a degraded thread could not write,
// bounded; beyond the bound the block is discarded with exact
// accounting.
func (s *streamer) retain(sf *streamFile, blk stagedBlock) {
	if len(sf.retained) < degradedRetain {
		sf.retained = append(sf.retained, blk)
		return
	}
	s.discard(blk.samples)
}

// flushRetained makes one recovery attempt for a degraded thread's
// in-memory backlog: reopen if the open itself had failed, replay the
// retained chunks in order, and discard — with accounting — whatever
// still cannot be written. On full success the thread leaves degraded
// mode so its residue can follow.
func (s *streamer) flushRetained(thread int32, sf *streamFile) {
	if len(sf.retained) == 0 {
		return
	}
	if sf.w == nil {
		if w, err := s.open(sf.path); err == nil {
			sf.w = w
		}
	}
	if sf.w != nil && !sf.torn {
		flushed := true
		for i, rb := range sf.retained {
			// Replay the originally staged bytes verbatim — the same bytes
			// the network sink shipped for this chunk — never a re-encode.
			if err := s.writeBlock(sf, rb); err != nil {
				s.fail(thread, sf, fmt.Errorf("retained flush: %w", err))
				sf.retained = sf.retained[i:]
				flushed = false
				break
			}
		}
		if flushed {
			sf.retained = nil
			sf.err = nil
			return
		}
	}
	for _, rb := range sf.retained {
		s.discard(rb.samples)
	}
	sf.retained = nil
}

// writeResidue stores one buffer's not-yet-relayed samples as a final
// block, encoded from a snapshot of the live buffer, which is safe
// against a wedged callback still appending, into a pooled buffer. With
// the collector quiescent the buffer is then retired, its chunk back in
// the reserve; it keeps its drop counters for Report.
// A residue the file sink cannot write joins the thread's retained
// backlog, so stop's last flushRetained gives it the same recovery
// attempt (reopening a file whose open failed during the run) before
// it is discarded.
func (s *streamer) writeResidue(tb threadBuf, quiesced bool) {
	b := tb.buf
	if quiesced {
		defer b.Retire()
	}
	if b.Len() == 0 && b.NumStacks() == 0 && b.Dropped() == 0 {
		return
	}
	samples := uint32(b.Len())
	s.led.Take(samples)
	block, err := s.enc.AppendBuffer(blocks.Get()[:0], b, s.t.opts.TraceCompress)
	if err != nil {
		blocks.Put(block)
		s.errs = append(s.errs, fmt.Errorf("tool: stream thread %d: residue encode: %w", tb.id, err))
		s.discard(samples)
		return
	}
	s.store(tb.id, stagedBlock{samples: samples, block: block})
}

// stop shuts down the writer goroutine, drains the chunks still queued
// on the relay, replays each degraded thread's retained backlog,
// flushes every buffer's residue — continuing past per-thread failures
// rather than abandoning the remaining threads — and closes every
// file. The returned error joins every per-thread failure. quiesced
// reports whether Detach actually quiesced the collector; when false
// (a wedged callback survived the bounded wait) the buffers are left
// as they are after their residues are written.
func (s *streamer) stop(quiesced bool) error {
	close(s.done)
	s.wg.Wait()
	for {
		select {
		case sc := <-s.relay.C:
			s.writeChunk(sc)
			continue
		default:
		}
		break
	}
	seen := make(map[int32]bool)
	for _, tb := range s.t.snapshotBuffers() {
		if s.fileSink {
			// Replay the retained backlog first so blocks stay in append
			// order, then the residue.
			s.flushRetained(tb.id, s.file(tb.id))
		}
		s.writeResidue(tb, quiesced)
		seen[tb.id] = true
	}
	if s.net != nil {
		// Seal every thread stream the run touched (every chunk came
		// from a buffer the snapshot above lists), say goodbye, and
		// give the sender a bounded grace to flush; what stays unflushed
		// is dropped with exact accounting inside the sink.
		ids := make([]int32, 0, len(seen))
		for thread := range seen {
			ids = append(ids, thread)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, thread := range ids {
			s.net.seal(thread)
		}
		s.net.shutdown()
	}
	for thread, sf := range s.files {
		s.flushRetained(thread, sf) // unwritable residues, and files whose buffer never resurfaced
		if sf.w != nil {
			if err := sf.w.Close(); err != nil {
				s.errs = append(s.errs, fmt.Errorf("tool: stream close thread %d: %w", thread, err))
			}
		}
	}
	s.files = nil
	// Every goroutine that settles has stopped: check the books.
	s.errs = append(s.errs, s.led.Balance())
	if s.net != nil {
		s.errs = append(s.errs, s.net.led.Balance())
	}
	return errors.Join(s.errs...)
}
