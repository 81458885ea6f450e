package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ingestWorkload is the fleet operator's case: raw protocol clients
// replay pre-encoded chunks to psxd with durable acks, so only the
// daemon's path — frame decode, sample-count cross-check, write,
// journal, fsync, ack — is at work. Phase A is an open loop at a fixed
// rate and reports due-time-to-ack latency; phase B is a closed loop
// with a window per connection and reports capacity, in pairs with the
// same replay under non-durable acks.
type ingestWorkload struct {
	cfg   config
	fsync string // psxd's policy; ingestFsync for the workload itself
	dir   string
	srv   *psxd
	pool  [][]byte // encoded blocks, each blockSamples samples
	runs  int
}

const (
	ingestFsync  = "every-8"
	ingestWindow = 64 // frames in flight per connection, the tool's own window
)

// chunkConn is what a replay needs from a connection; a test puts a
// stalling fake behind it.
type chunkConn interface {
	sendChunk(seq uint64, thread int32, samples int, block []byte) error
	flush() error
	readAck() (uint64, ackCode, error)
}

// setup encodes the block pool and starts psxd. There is no warm-up
// replay: it would put fsync, the least steady thing in the sandbox,
// into setup_s, and the first of a run's many pairs is warm-up enough.
func (w *ingestWorkload) setup() error {
	var err error
	if w.pool, err = encodePool(w.cfg.seed, w.cfg.sz.blockPool, w.cfg.width); err != nil {
		return err
	}
	return w.start()
}

// start starts psxd on a fresh directory.
func (w *ingestWorkload) start() error {
	var err error
	if w.dir, err = os.MkdirTemp(w.cfg.root, "psxd-"); err != nil {
		return err
	}
	w.srv, err = startPsxd(w.dir, w.fsync)
	return err
}

func (w *ingestWorkload) teardown() {
	if w.srv != nil {
		w.srv.close()
	}
	os.RemoveAll(w.dir)
}

// encodePool builds n seeded v2 blocks of exactly blockSamples samples.
func encodePool(seed int64, n, threads int) ([][]byte, error) {
	tr := genTrace(seed, (n+threads)*blockSamples, threads)
	var pool [][]byte
	for _, blocks := range tr.blocks(true) {
		for _, b := range blocks {
			enc, err := encodeBlock(b, tr.Stacks, encV2)
			if err != nil {
				return nil, err
			}
			pool = append(pool, enc)
		}
	}
	if len(pool) < n {
		return nil, fmt.Errorf("block pool: generated %d blocks, want %d", len(pool), n)
	}
	return pool[:n], nil
}

// block picks client c's k-th chunk from the pool.
func (w *ingestWorkload) block(c, k int) []byte {
	return w.pool[(c*7919+k)%len(w.pool)]
}

// chunk is client c's chunk sequence: pool blocks dealt round-robin to
// one trace stream per core, as a profiled process would produce them.
func (w *ingestWorkload) chunk(c int) chunkFn {
	return func(k int) (int32, int, []byte) {
		return int32(k % w.cfg.width), blockSamples, w.block(c, k)
	}
}

// clientRun is one client's replay of one run and what came back.
type clientRun struct {
	id     string
	client int
	chunks int
	ok     []bool // acked INGEST_OK, by chunk
	acks   [4]int // by ackCode
}

// closeRun seals every thread stream and ends the run, waiting for the
// acks of the control frames.
func closeRun(rc *rawClient, chunks, threads int) error {
	seq := uint64(chunks)
	for th := 0; th < threads; th++ {
		seq++
		if err := rc.sendSeal(seq, int32(th)); err != nil {
			return err
		}
	}
	if err := rc.sendBye(seq+1, uint64(chunks)); err != nil {
		return err
	}
	if err := rc.flush(); err != nil {
		return err
	}
	for i := 0; i <= threads; i++ {
		if _, code, err := rc.readAck(); err != nil {
			return err
		} else if code != ackOK {
			return fmt.Errorf("ingest: control frame refused (ack code %d)", code)
		}
	}
	return nil
}

// chunkFn names a run's k-th chunk: its thread, sample count and
// encoded block.
type chunkFn func(k int) (thread int32, samples int, block []byte)

// closedLoop replays run's chunks with at most window frames in
// flight: the next chunk goes out only as acks come back.
func closedLoop(rc chunkConn, run *clientRun, window int, chunk chunkFn) error {
	slots := make(chan struct{}, window)
	stop := make(chan struct{})
	defer close(stop)
	sendErr := make(chan error, 1)
	go func() {
		for k := 0; k < run.chunks; k++ {
			select {
			case slots <- struct{}{}:
			default:
				// Window full: push out what is buffered before waiting
				// for an ack to free a slot.
				if err := rc.flush(); err != nil {
					sendErr <- err
					return
				}
				select {
				case slots <- struct{}{}:
				case <-stop:
					return
				}
			}
			th, n, block := chunk(k)
			if err := rc.sendChunk(uint64(k+1), th, n, block); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- rc.flush()
	}()
	for got := 0; got < run.chunks; got++ {
		seq, code, err := rc.readAck()
		if err != nil {
			return err
		}
		<-slots
		run.acks[code]++
		if code == ackOK && seq >= 1 && seq <= uint64(run.chunks) {
			run.ok[seq-1] = true
		}
	}
	return <-sendErr
}

// openLoop sends chunk k at start + k*interval whatever the acks do,
// and times each from the instant it was due, so the wait a stall
// imposes on the chunks queued behind it is counted. It returns the
// due-to-ack latencies and how late the generator itself sent, in
// milliseconds.
func openLoop(rc chunkConn, run *clientRun, start time.Time, interval time.Duration, chunk chunkFn, tr *tracer, parent spanRef) (lat, late []float64, err error) {
	due := func(k int) time.Time { return start.Add(time.Duration(k) * interval) }
	late = make([]float64, run.chunks)
	stop := make(chan struct{})
	defer close(stop)
	sendErr := make(chan error, 1)
	go func() {
		for k := 0; k < run.chunks; k++ {
			if wait := time.Until(due(k)); wait > 0 {
				time.Sleep(wait)
			}
			select {
			case <-stop:
				return
			default:
			}
			late[k] = ms(time.Since(due(k)))
			th, n, block := chunk(k)
			err := rc.sendChunk(uint64(k+1), th, n, block)
			if err == nil {
				err = rc.flush()
			}
			if err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	lat = make([]float64, 0, run.chunks)
	for got := 0; got < run.chunks; got++ {
		seq, code, err := rc.readAck()
		if err != nil {
			return nil, nil, err
		}
		run.acks[code]++
		if code == ackOK && seq >= 1 && seq <= uint64(run.chunks) {
			run.ok[seq-1] = true
			k, now := int(seq-1), time.Now()
			lat = append(lat, ms(now.Sub(due(k))))
			tr.record("ingest.chunk_due_to_ack", parent, k, due(k), now)
		}
	}
	return lat, late, <-sendErr
}

// replay runs one client per core against psxd, each with its own run,
// and returns the wall time from the common start to the last run's
// BYE ack. body drives one client's chunks.
func (w *ingestWorkload) replay(chunks int, durable bool, body func(rc *rawClient, run *clientRun) error) ([]*clientRun, time.Duration, error) {
	w.runs++
	n := w.cfg.width
	runs := make([]*clientRun, n)
	conns := make([]*rawClient, n)
	for c := range runs {
		runs[c] = &clientRun{id: fmt.Sprintf("ingest-%d-%d", w.runs, c), client: c, chunks: chunks / n, ok: make([]bool, chunks/n)}
		rc, err := dialRaw(w.srv.addr(), runs[c].id, durable)
		if err != nil {
			return nil, 0, err
		}
		defer rc.close()
		conns[c] = rc
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range runs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if errs[c] = body(conns[c], runs[c]); errs[c] == nil {
				errs[c] = closeRun(conns[c], runs[c].chunks, n)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return runs, elapsed, nil
}

// closedResult is one phase-B run.
type closedResult struct {
	elapsed       time.Duration // common start to the last BYE ack
	bytesPerEvent float64       // left on disk
	allocPerEvent float64       // heap bytes allocated, clients and psxd together
}

// closedRun replays chunks chunks in total, closed loop, then verifies
// and removes the run directories.
func (w *ingestWorkload) closedRun(chunks int, durable bool, out *outcome) (closedResult, error) {
	a0 := allocatedBytes()
	runs, elapsed, err := w.replay(chunks, durable, func(rc *rawClient, run *clientRun) error {
		return closedLoop(rc, run, ingestWindow, w.chunk(run.client))
	})
	if err != nil {
		return closedResult{}, err
	}
	alloc := allocatedBytes() - a0
	bpe, err := w.verify(runs, out)
	return closedResult{elapsed, bpe, float64(alloc) / float64(chunks*blockSamples)}, err
}

// verify checks that each run directory holds exactly the blocks psxd
// acknowledged, byte for byte and in order, under a complete manifest;
// it returns bytes on disk per event and removes the directories.
func (w *ingestWorkload) verify(runs []*clientRun, out *outcome) (float64, error) {
	var bytesOnDisk int64
	var samples uint64
	for _, run := range runs {
		dir := w.srv.runDir(run.id)
		if err := w.srv.waitComplete(run.id, 10*time.Second); err != nil {
			return 0, err
		}
		rc, err := checkRunDir(dir)
		if err != nil {
			return 0, err
		}
		acked := 0
		for th := 0; th < w.cfg.width; th++ {
			n, err := w.compareFile(filepath.Join(dir, fmt.Sprintf("trace.%d.psxt", th)), run, th)
			if err != nil {
				return 0, err
			}
			acked += n
		}
		if rc.Samples != uint64(acked)*blockSamples {
			return 0, fmt.Errorf("run %s: %d samples on disk, %d chunks acknowledged", run.id, rc.Samples, acked)
		}
		if out != nil {
			out.attempted += int64(run.chunks)
			out.failed += int64(run.chunks - acked)
		}
		bytesOnDisk += rc.Bytes
		samples += rc.Samples
		os.RemoveAll(dir)
	}
	return float64(bytesOnDisk) / float64(samples), nil
}

// compareFile checks thread th's trace file against the acknowledged
// blocks sent for it and returns how many there were.
func (w *ingestWorkload) compareFile(path string, run *clientRun, th int) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var scratch []byte
	n := 0
	for k := th; k < run.chunks; k += w.cfg.width {
		if !run.ok[k] {
			continue
		}
		want := w.block(run.client, k)
		if cap(scratch) < len(want) {
			scratch = make([]byte, len(want))
		}
		got := scratch[:len(want)]
		if _, err := io.ReadFull(br, got); err != nil || !bytes.Equal(got, want) {
			return 0, fmt.Errorf("%s: stored bytes differ from chunk %d as sent (%v)", path, k+1, err)
		}
		n++
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return 0, fmt.Errorf("%s: bytes stored beyond the acknowledged chunks", path)
	}
	return n, nil
}

// openPhase is phase A: rate chunks/s in total for d, one paced client
// per core.
func (w *ingestWorkload) openPhase(d time.Duration, out *outcome, tr *tracer) error {
	if d <= 0 {
		return nil
	}
	rate := w.cfg.sz.openRate
	chunks := int(rate*d.Seconds()) / w.cfg.width * w.cfg.width
	interval := time.Duration(float64(time.Second) * float64(w.cfg.width) / rate)
	var mu sync.Mutex
	var lat, late []float64
	sp := tr.start("ingest.open_loop", spanRef{}, 0)
	var once sync.Once
	var start time.Time
	runs, _, err := w.replay(chunks, true, func(rc *rawClient, run *clientRun) error {
		// Stagger the clients across one interval so the total is an
		// even stream, not bursts of one chunk per client.
		once.Do(func() { start = time.Now().Add(5 * time.Millisecond) })
		offset := interval * time.Duration(run.client) / time.Duration(w.cfg.width)
		l, g, err := openLoop(rc, run, start.Add(offset), interval, w.chunk(run.client), tr, sp)
		mu.Lock()
		lat, late = append(lat, l...), append(late, g...)
		mu.Unlock()
		return err
	})
	sp.end()
	if err != nil {
		return err
	}
	for _, run := range runs {
		out.rec.add("acks_overloaded", "count", float64(run.acks[ackOverloaded]))
		out.rec.add("acks_storage", "count", float64(run.acks[ackStorage]))
	}
	if _, err := w.verify(runs, out); err != nil {
		return err
	}
	out.rec.addAll(opSeries(tr), "ms", lat)
	out.rec.add("ack_p50_ms", "ms", percentile(lat, 50))
	out.rec.add("ack_p99_ms", "ms", percentile(lat, 99))
	out.rec.add("gen_late_p99_ms", "ms", percentile(late, 99))
	return nil
}

// measure spends a fifth of the budget in the open loop and the rest
// in closed-loop pairs, durable and non-durable, alternating which goes
// first. A traced run records a span per chunk in half of the open
// loop.
func (w *ingestWorkload) measure(budget time.Duration, tr *tracer, out *outcome) error {
	start := time.Now()
	open := budget / 5
	if tr != nil {
		open /= 2
		if err := w.openPhase(open, out, tr); err != nil {
			return err
		}
	}
	if err := w.openPhase(open, out, nil); err != nil {
		return err
	}
	chunks := w.cfg.sz.runChunks
	for i := 0; i < w.cfg.sz.minOps || time.Since(start) < budget; i++ {
		pair := tr.start("bench.pair", spanRef{}, i)
		var res [2]closedResult // [non-durable, durable]
		for j := 0; j < 2; j++ {
			durable := (i + j) % 2
			sp := tr.start([]string{"ingest.closed_nondurable", "ingest.closed_durable"}[durable], pair, i)
			r, err := w.closedRun(chunks, durable == 1, out)
			sp.end()
			if err != nil {
				return err
			}
			res[durable] = r
		}
		pair.end()
		t := [2]time.Duration{res[0].elapsed, res[1].elapsed}
		out.rec.add("events_per_s", "events/s", float64(chunks*blockSamples)/t[1].Seconds())
		out.rec.add("slowdown_x", "ratio", t[1].Seconds()/t[0].Seconds())
		out.rec.add("bytes_per_event", "B", res[1].bytesPerEvent)
		out.rec.add("alloc_bytes_per_event", "B", res[1].allocPerEvent)
		out.rec.add("ingest_chunks_per_s", "chunks/s", float64(chunks)/t[1].Seconds())
		out.rec.add("nondurable_chunks_per_s", "chunks/s", float64(chunks)/t[0].Seconds())
	}
	return nil
}
