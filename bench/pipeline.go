package main

// Every call the harness makes into goomp/internal/* is in this file,
// and no other file of the benchmark imports those packages: a change
// to one of the functions used here changes what the benchmark pins.
// README.md lists them by layer.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"goomp/internal/analysis"
	"goomp/internal/collector"
	"goomp/internal/epcc"
	"goomp/internal/ingest"
	"goomp/internal/npb"
	"goomp/internal/omp"
	"goomp/internal/perf"
	"goomp/internal/tool"
)

// Sample is the trace record every layer past the recording thread
// works on.
type Sample = perf.Sample

// blockSamples is the pipeline's shipping unit: one sealed chunk.
const blockSamples = perf.ChunkSamples

const (
	evFork       = int32(collector.EventFork)
	evJoin       = int32(collector.EventJoin)
	evBeginIBar  = int32(collector.EventThrBeginIBar)
	evEndIBar    = int32(collector.EventThrEndIBar)
	evChunkSteal = int32(collector.EventChunkSteal)
	evTaskSteal  = int32(collector.EventTaskSteal)
	noStack      = perf.NoStack
)

// ---- omp -----------------------------------------------------------

type ompRuntime = omp.RT

func newRuntime(threads int) *omp.RT { return omp.New(omp.Config{NumThreads: threads}) }

func ompForkJoin(rt *omp.RT, n int) {
	for i := 0; i < n; i++ {
		rt.Parallel(func(*omp.ThreadCtx) {})
	}
}

func ompBarriers(rt *omp.RT, n int) {
	rt.Parallel(func(tc *omp.ThreadCtx) {
		for i := 0; i < n; i++ {
			tc.Barrier()
		}
	})
}

func ompDynamicFor(rt *omp.RT, loops, iters, chunk int) {
	rt.Parallel(func(tc *omp.ThreadCtx) {
		for l := 0; l < loops; l++ {
			tc.ForSchedNoWait(iters, omp.ScheduleDynamic, chunk, func(lo, hi int) {})
		}
	})
}

// ---- applications --------------------------------------------------

// epccSegment is the fine-grained application: rounds seeded shuffles
// of every EPCC directive, each run as a short inner loop around a
// short delay, so almost all of the time is runtime and event work.
func epccSegment(rt *omp.RT, seed int64, rounds int) func() error {
	s := epcc.NewSuite(rt)
	s.InnerReps = 64
	s.DelayLength = 16
	ds := epcc.Directives()
	order := shuffledRounds(seed, rounds, len(ds))
	return func() error {
		for _, i := range order {
			ds[i].Run(s)
		}
		return nil
	}
}

// npbSegment is the coarse-grained application: passes seeded shuffles
// of the NPB kernels, every result verified.
func npbSegment(rt *omp.RT, seed int64, passes int, class byte) func() error {
	suite := npb.Suite()
	order := shuffledRounds(seed, passes, len(suite))
	return func() error {
		for _, i := range order {
			if res := suite[i].Run(rt, npb.Class(class)); !res.Verified {
				return fmt.Errorf("npb %s.%c failed verification", res.Name, class)
			}
		}
		return nil
	}
}

func shuffledRounds(seed int64, rounds, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, 0, rounds*n)
	for r := 0; r < rounds; r++ {
		order = append(order, rng.Perm(n)...)
	}
	return order
}

// ---- collector -----------------------------------------------------

// collectorDispatchLoop returns a loop of n event notifications on a
// bare collector, with no callback registered or with a no-op one.
func collectorDispatchLoop(n int, registered bool) (func(), error) {
	c := collector.New()
	ti := collector.NewThreadInfo(0)
	c.BindThread(ti)
	if registered {
		q := c.NewQueue()
		if ec := collector.Control(q, collector.ReqStart); ec != collector.ErrOK {
			return nil, fmt.Errorf("collector start: %v", ec)
		}
		h := c.NewCallbackHandle(func(collector.Event, *collector.ThreadInfo) {})
		if ec := collector.Register(q, collector.EventThrBeginIBar, h); ec != collector.ErrOK {
			return nil, fmt.Errorf("collector register: %v", ec)
		}
	}
	return func() {
		for i := 0; i < n; i++ {
			c.Event(ti, collector.EventThrBeginIBar)
		}
	}, nil
}

// eventsDispatched is the collector's running count of notifications
// for the events the tool registers.
func eventsDispatched(rt *omp.RT) uint64 {
	var n uint64
	for _, e := range tool.DefaultEvents() {
		n += rt.Collector().EventCount(e)
	}
	return n
}

// ---- tool ----------------------------------------------------------

// toolCounts is what one attachment saw, from the collector's dispatch
// counters and the tool's own report.
type toolCounts struct {
	Dispatched     uint64 // events dispatched while attached
	Retained       uint64 // samples still in memory at detach (memory-only tool)
	DroppedSamples uint64 // samples the tool accounts as lost, all causes
	Produced       uint64 // chunks handed to the network sink
	Shipped        uint64 // chunks psxd acknowledged
	DroppedChunks  uint64 // chunks the sink gave up on, plus relay overflow
	RelayDropped   uint64 // of those, chunks the relay to the writer goroutine shed
	Spilled        uint64
}

const sinkQueueDepth = 4096 // frames; about 1.4 s of epcc-fine

type attachment struct {
	rt     *omp.RT
	tl     *tool.Tool
	before uint64
}

// attachTool attaches the paper's full-measurement tool. With addr
// empty the tool keeps samples in memory; otherwise every sealed chunk
// is shipped to the psxd at addr as run.
//
// The sink's frame queue is deepened from 256 to sinkQueueDepth: when
// the sandbox's disk stalls psxd for a fraction of a second (the
// harness's own first build does it), TCP pushes back on the sink, and
// at epcc-fine's 3000 chunks/s the default queue overflows in 90 ms and
// sheds — and a shed chunk is a failed operation.
func attachTool(rt *omp.RT, addr, run string, durable bool) (*attachment, error) {
	o := tool.FullMeasurement()
	o.IngestAddr, o.IngestRun, o.IngestDurable = addr, run, durable
	o.IngestPendingDepth = sinkQueueDepth
	before := eventsDispatched(rt)
	tl, err := tool.AttachRuntime(rt, o)
	if err != nil {
		return nil, err
	}
	return &attachment{rt: rt, tl: tl, before: before}, nil
}

func (a *attachment) detach() { a.tl.Detach() }

// counts is valid after detach.
func (a *attachment) counts() toolCounts {
	r := a.tl.Report()
	return toolCounts{
		Dispatched: eventsDispatched(a.rt) - a.before,
		Retained:   uint64(r.Samples),
		DroppedSamples: r.Dropped + r.IngestDroppedSamples + r.IngestStorageSamples +
			r.StreamDiscardedSamples + r.ForcedDropSamples + r.IngestSpillPendingSamples,
		Produced:      r.IngestProducedChunks,
		Shipped:       r.IngestShippedChunks,
		DroppedChunks: r.IngestDroppedChunks + r.IngestStorageChunks + r.RelayDropped,
		RelayDropped:  r.RelayDropped,
		Spilled:       r.IngestSpilledChunks,
	}
}

// toolEventLoop returns a loop of n notifications into a memory-only
// tool attached to a bare collector: implicit-barrier events, or join
// events with a callstack each.
func toolEventLoop(n int, joinStacks bool) (loop, done func(), err error) {
	c := collector.New()
	ti := collector.NewThreadInfo(0)
	c.BindThread(ti)
	tl, err := tool.AttachCollector(c, tool.Options{Measure: true, JoinStacks: joinStacks, BufferCap: 2 * n})
	if err != nil {
		return nil, nil, err
	}
	e := collector.EventThrBeginIBar
	if joinStacks {
		e = collector.EventJoin
	}
	return func() {
		for i := 0; i < n; i++ {
			c.Event(ti, e)
		}
	}, tl.Detach, nil
}

// ---- psxd ----------------------------------------------------------

type psxd struct {
	srv *ingest.Server
	dir string
}

// startPsxd starts the ingestion daemon in this process on a loopback
// port of the kernel's choosing. Starting it on a directory a killed
// daemon left behind runs journal recovery first.
//
// The backpressure window (psxd -backpressure, 5 ms by default) is
// raised so that a full run queue pushes back on the sender over TCP
// and never sheds a chunk: the workloads are ones on which no
// operation fails, and a shed chunk would be a failed one.
func startPsxd(dir, fsync string) (*psxd, error) {
	pol, err := ingest.ParseFsyncPolicy(fsync)
	if err != nil {
		return nil, err
	}
	srv, err := ingest.Serve("127.0.0.1:0", ingest.Options{Dir: dir, Fsync: pol, BackpressureWait: 5 * time.Second})
	if err != nil {
		return nil, err
	}
	return &psxd{srv: srv, dir: dir}, nil
}

func (p *psxd) addr() string            { return p.srv.Addr() }
func (p *psxd) close() error            { return p.srv.Close() }
func (p *psxd) kill()                   { p.srv.Kill() }
func (p *psxd) runDir(id string) string { return filepath.Join(p.dir, id) }

// waitComplete polls the daemon's registry until run id is sealed.
func (p *psxd) waitComplete(id string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		for _, ri := range p.srv.Runs() {
			if ri.ID == id && ri.Complete {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("psxd: run %s not complete after %v", id, timeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// recoveredChunks is how many chunks run id holds in the registry of a
// daemon that recovered it.
func (p *psxd) recoveredChunks(id string) (uint64, bool) {
	for _, ri := range p.srv.Runs() {
		if ri.ID == id {
			return ri.Chunks, true
		}
	}
	return 0, false
}

// runDirCheck is what a sealed run directory holds.
type runDirCheck struct {
	Samples uint64 // counted by skimming every trace file
	Bytes   int64  // traces + journal + manifest
}

// checkRunDir verifies a run directory's manifest (complete, not
// quarantined, sample count equal to the files') and sizes it.
func checkRunDir(dir string) (runDirCheck, error) {
	var rc runDirCheck
	m, err := ingest.ReadManifest(dir)
	if err != nil {
		return rc, err
	}
	if !m.Complete || m.Quarantined || m.Salvaged {
		return rc, fmt.Errorf("run %s: manifest complete=%v quarantined=%v salvaged=%v",
			dir, m.Complete, m.Quarantined, m.Salvaged)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return rc, err
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && !e.IsDir() {
			rc.Bytes += fi.Size()
		}
	}
	files, err := perf.FindTraceFiles(dir)
	if err != nil {
		return rc, err
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return rc, err
		}
		n, err := perf.CountStreamSamples(f)
		f.Close()
		if err != nil {
			return rc, fmt.Errorf("%s: %w", path, err)
		}
		rc.Samples += n
	}
	if rc.Samples != m.Samples {
		return rc, fmt.Errorf("run %s: manifest says %d samples, files hold %d", dir, m.Samples, rc.Samples)
	}
	return rc, nil
}

// ---- ingest wire protocol: a raw client ----------------------------

type ackCode int

const (
	ackOK ackCode = iota
	ackOverloaded
	ackStorage
	ackOther
)

// rawClient speaks the ingest wire protocol directly, with none of the
// tool's queues in between.
type rawClient struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dialRaw(addr, run string, durable bool) (*rawClient, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	rc := &rawClient{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10)}
	h := ingest.Hello{Version: ingest.ProtoVersion, Run: run, Host: "bench", PID: uint64(os.Getpid())}
	if durable {
		h.Flags = ingest.FlagDurable
	}
	if err := ingest.WriteFrame(c, ingest.MsgHello, ingest.EncodeHello(h)); err != nil {
		c.Close()
		return nil, err
	}
	kind, payload, err := ingest.ReadFrame(rc.br)
	if err == nil && kind != ingest.MsgHelloAck {
		err = fmt.Errorf("ingest: frame kind %d in place of HELLO-ACK", kind)
	}
	var ha ingest.HelloAck
	if err == nil {
		ha, err = ingest.DecodeHelloAck(payload)
	}
	if err == nil && ha.Code != ingest.CodeOK {
		err = fmt.Errorf("ingest: HELLO refused: %v", ha.Code)
	}
	if err == nil && durable && ha.Flags&ingest.FlagDurable == 0 {
		err = fmt.Errorf("ingest: durable acks not granted")
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return rc, nil
}

func (rc *rawClient) sendChunk(seq uint64, thread int32, samples int, block []byte) error {
	return ingest.WriteFrame(rc.bw, ingest.MsgChunk,
		ingest.EncodeChunk(ingest.Chunk{Seq: seq, Thread: thread, Samples: uint32(samples), Block: block}))
}

func (rc *rawClient) sendSeal(seq uint64, thread int32) error {
	return ingest.WriteFrame(rc.bw, ingest.MsgSeal, ingest.EncodeSeal(ingest.Seal{Seq: seq, Thread: thread}))
}

func (rc *rawClient) sendBye(seq, produced uint64) error {
	return ingest.WriteFrame(rc.bw, ingest.MsgBye, ingest.EncodeBye(ingest.Bye{Seq: seq, Produced: produced}))
}

func (rc *rawClient) flush() error { return rc.bw.Flush() }
func (rc *rawClient) close()       { rc.c.Close() }

func (rc *rawClient) readAck() (uint64, ackCode, error) {
	kind, payload, err := ingest.ReadFrame(rc.br)
	if err != nil {
		return 0, ackOther, err
	}
	if kind != ingest.MsgAck {
		return 0, ackOther, fmt.Errorf("ingest: frame kind %d in place of ACK", kind)
	}
	a, err := ingest.DecodeAck(payload)
	if err != nil {
		return 0, ackOther, err
	}
	switch a.Code {
	case ingest.CodeOK:
		return a.Seq, ackOK, nil
	case ingest.CodeOverloaded:
		return a.Seq, ackOverloaded, nil
	case ingest.CodeStorage:
		return a.Seq, ackStorage, nil
	}
	return a.Seq, ackOther, nil
}

// wireEncodeLoop and wireDecodeLoop time the framing alone.
func wireEncodeLoop(n int, block []byte) func() {
	return func() {
		for i := 0; i < n; i++ {
			ingest.WriteFrame(io.Discard, ingest.MsgChunk,
				ingest.EncodeChunk(ingest.Chunk{Seq: uint64(i + 1), Samples: blockSamples, Block: block}))
		}
	}
}

func wireDecodeLoop(n int, block []byte) (func() error, error) {
	var frame bytes.Buffer
	if err := ingest.WriteFrame(&frame, ingest.MsgChunk,
		ingest.EncodeChunk(ingest.Chunk{Seq: 1, Samples: blockSamples, Block: block})); err != nil {
		return nil, err
	}
	r := bytes.NewReader(frame.Bytes())
	return func() error {
		for i := 0; i < n; i++ {
			r.Seek(0, io.SeekStart)
			_, payload, err := ingest.ReadFrame(r)
			if err != nil {
				return err
			}
			if _, err := ingest.DecodeChunk(payload); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// ---- perf: record, encode, decode ----------------------------------

type encoding int

const (
	encV1 encoding = iota
	encV2
	encFlate
)

func (e encoding) perf() perf.Encoding {
	return perf.Encoding{V2: e != encV1, Flate: e == encFlate}
}

// fillBuffer appends samples to a fresh trace buffer; a sample whose
// StackID is not noStack takes that entry of stacks as its callstack.
func fillBuffer(samples []Sample, stacks [][]uintptr) *perf.TraceBuffer {
	buf := perf.NewTraceBuffer(len(samples), 0)
	for _, s := range samples {
		if s.StackID != noStack {
			buf.AppendStacked(s, stacks[s.StackID])
		} else {
			buf.Append(s)
		}
	}
	return buf
}

// encodeBlock is what the tool's writer goroutine does to one sealed
// chunk: one self-contained trace block.
func encodeBlock(samples []Sample, stacks [][]uintptr, enc encoding) ([]byte, error) {
	var out bytes.Buffer
	if err := perf.WriteTraceEnc(&out, fillBuffer(samples, stacks), enc.perf()); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// encodeLoop re-encodes prebuilt one-chunk buffers into a reused
// output buffer and returns the bytes one pass over them produces.
func encodeLoop(blocks [][]Sample, stacks [][]uintptr, enc encoding) (loop func() error, bytesPerPass func() int) {
	bufs := make([]*perf.TraceBuffer, len(blocks))
	for i, b := range blocks {
		bufs[i] = fillBuffer(b, stacks)
	}
	var out bytes.Buffer
	total := 0
	return func() error {
			total = 0
			for _, b := range bufs {
				out.Reset()
				if err := perf.WriteTraceEnc(&out, b, enc.perf()); err != nil {
					return err
				}
				total += out.Len()
			}
			return nil
		}, func() int {
			return total
		}
}

func perfRecordLoop(n int) func() {
	buf := perf.NewTraceBuffer(n, 0)
	s := Sample{Time: 1, Event: evBeginIBar, State: 2, StackID: noStack}
	return func() {
		for i := 0; i < n; i++ {
			buf.Append(s)
		}
	}
}

func perfRecordStackLoop(n int) func() {
	buf := perf.NewTraceBuffer(n, 0)
	s := Sample{Time: 1, Event: evJoin, State: 2}
	return func() {
		for i := 0; i < n; i++ {
			buf.AppendStacked(s, perf.Callstack(0, 32))
		}
	}
}

// decodeStream reads a multi-block trace stream fully.
func decodeStream(r io.Reader) ([]Sample, error) {
	buf, err := perf.ReadTraceStream(r)
	if err != nil {
		return nil, err
	}
	return buf.Samples(), nil
}

func countStream(r io.Reader) (uint64, error) { return perf.CountStreamSamples(r) }

// ---- perf + analysis: the report ----------------------------------

// reportCounts is what one report pass found, for checking against
// what the generator wrote.
type reportCounts struct {
	Samples    int
	Sites      int
	Regions    int // fork/join pairs
	StealSites int
	Threads    int
}

// reportTimes is how long one report took, and how long its reading
// and decoding part.
type reportTimes struct {
	decode, total time.Duration
	alloc         uint64 // heap bytes allocated; the caller fills it in
}

// reportPass does what cmd/ompreport does with one path argument, with
// the tables written to io.Discard.
func reportPass(path string, tr *tracer, parent spanRef, op int) (rc reportCounts, rt reportTimes, err error) {
	t0 := time.Now()
	sp := tr.start("perf.find_trace_files", parent, op)
	paths, err := perf.FindTraceFiles(path)
	sp.end()
	if err != nil {
		return rc, rt, err
	}
	var samples []Sample
	seenDir := map[string]bool{}
	for _, p := range paths {
		if dir := filepath.Dir(p); !seenDir[dir] {
			seenDir[dir] = true
			if m, err := ingest.ReadManifest(dir); err == nil && (m.Quarantined || m.Salvaged) {
				return rc, rt, fmt.Errorf("run %s is quarantined or salvaged", dir)
			}
		}
		sp := tr.start("perf.read_trace_stream", parent, op)
		f, err := os.Open(p)
		if err != nil {
			return rc, rt, err
		}
		buf, _, err := perf.ReadTraceStreamReports(f)
		f.Close()
		if err != nil {
			return rc, rt, fmt.Errorf("%s: %w", p, err)
		}
		samples = append(samples, buf.Samples()...)
		sp.end()
	}
	rt.decode = time.Since(t0)
	rc.Samples = len(samples)

	sp = tr.start("perf.region_profile", parent, op)
	sites := perf.RegionProfileBySite(samples, evFork, evJoin)
	perf.WriteRegionSiteTable(io.Discard, sites, nil)
	sp.end()
	rc.Sites = len(sites)
	for _, s := range sites {
		rc.Regions += s.Calls
	}

	sp = tr.start("perf.steal_profile", parent, op)
	steals := perf.StealProfileBySite(samples, evChunkSteal, evTaskSteal)
	if len(steals) > 0 {
		perf.WriteStealTable(io.Discard, steals, nil)
		perf.WriteStealEdges(io.Discard, perf.StealEdges(samples, evChunkSteal, evTaskSteal))
		analysis.WriteStealReport(io.Discard, analysis.StealActivities(samples))
	}
	sp.end()
	rc.StealSites = len(steals)

	sp = tr.start("analysis.timelines", parent, op)
	tls := analysis.Timelines(samples)
	sp.end()
	rc.Threads = len(tls)
	sp = tr.start("analysis.report", parent, op)
	analysis.Report(io.Discard, tls)
	analysis.BarrierImbalance(tls)
	sp.end()
	rt.total = time.Since(t0)
	return rc, rt, nil
}

// The three aggregations of the report, one at a time, for the
// per-layer probes.
func regionProfile(samples []Sample) int {
	return len(perf.RegionProfileBySite(samples, evFork, evJoin))
}

func timelinesReport(samples []Sample) (timelines, report time.Duration) {
	t0 := time.Now()
	tls := analysis.Timelines(samples)
	timelines = time.Since(t0)
	t0 = time.Now()
	analysis.Report(io.Discard, tls)
	analysis.BarrierImbalance(tls)
	return timelines, time.Since(t0)
}
