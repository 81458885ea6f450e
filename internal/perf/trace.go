package perf

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"sync/atomic"

	"goomp/internal/freelist"
	"goomp/internal/relstore"
)

// Sample is one trace record: an event observed on a thread at a
// counter value, optionally with a captured callstack.
//
// The 8-byte fields lead and the 4-byte ones follow, so a Sample is
// the 40 bytes its fields need and no padding: every chunk, decoder
// scratch and Samples copy is a slice of them. A field added later
// goes into its size's group. The trace formats write fields by
// explicit offset, so the order here moves no byte on disk or wire.
type Sample struct {
	Time    int64  // counter value (ns)
	Region  uint64 // parallel region ID (per invocation), or 0
	Site    uint64 // static region site (PC of the region's call site), or 0
	Thread  int32  // global OpenMP thread number
	Event   int32  // collector event, or -1 for sampler records
	State   int32  // thread state at the sample, or -1
	StackID int32  // index into the buffer's stack table, or -1
}

// NoStack marks a sample without an associated callstack.
const NoStack int32 = -1

// ChunkSamples is the capacity of one trace-buffer chunk: the unit of
// preallocation, of atomic publication to snapshot readers, and of
// hand-off to the streaming writer.
const ChunkSamples = 256

// callstackDepth is the most frames of a call path AppendCallstack
// stores.
const callstackDepth = 32

// arenaSlab is what a chunk's PC arena starts at: 16 full stacks.
const arenaSlab = 16 * callstackDepth

// cacheLinePad separates writer-private state from cross-thread
// counters inside the hot structs. Buffers are per-P/per-thread by
// construction; the padding removes the residual false sharing between
// the owning thread's cursor updates and the snapshot readers' and
// Report's counter loads landing on the same line.
const cacheLinePad = 64

// chunk is one fixed-size segment of a trace buffer. The owning thread
// fills samples[wn] and stacks[wns] (writer-private cursors) and then
// publishes each entry with a release-store of the corresponding count;
// snapshot readers acquire-load the counts and may read only the
// published prefixes. A chunk is never written again once the writer
// has moved past it, so sealed chunks are immutable — until a relaying
// buffer's consumer has encoded one and Release has shown that no
// reader can still hold it; then it is reset and filled again.
type chunk struct {
	samples []Sample    // len == ChunkSamples, allocated at creation
	stacks  [][]uintptr // len == ChunkSamples, allocated with a reserve chunk or on first stack

	// stackBase is the global stack ID of stacks[0]. The writer sets it
	// when it activates the chunk, before publishing any stack, so
	// readers must load nStacks (and observe it nonzero) before reading
	// stackBase.
	stackBase int32

	wn, wns int32 // writer-private cursors; nobody else reads these

	// Keep the published counters off the writer's cursor line: the
	// owning thread stores wn/wns every append while snapshot readers
	// spin loading n/nStacks. What separates them is put to use, so
	// that the chunk is as large as it was: paths is AppendCallstack's
	// (writer-private, made with a reserve chunk or on its first stack,
	// and recycled with the chunk), state is the one-chunk list a
	// relaying buffer publishes while this chunk is its active one (made
	// with a reserve chunk, never changed after), and sealed is the
	// handle seal relays the chunk under (filled at each seal, valid
	// until its Release). With the two counters they fill the chunk's
	// second cache line.
	paths  *pathTable
	state  bufState
	sealed SealedChunk

	n       published // published sample count
	nStacks published // published stack count
}

// published is a count only a chunk's writer stores: Store is a
// release store (relstore), which is all a single writer's publish
// needs, and Load an acquire load.
type published struct{ v int32 }

func (p *published) Load() int32   { return atomic.LoadInt32(&p.v) }
func (p *published) Store(v int32) { relstore.Store32(&p.v, v) }

func newChunk() *chunk {
	return &chunk{samples: make([]Sample, ChunkSamples)}
}

// newRelayChunk makes a chunk for the reserve with all a relaying
// buffer makes of it: the one-chunk list it publishes while the chunk
// is its active one, the stack table and the path table. Made on first
// use instead, the tables of a chunk a worker's buffer took first would
// be made when a stacking buffer first takes it off the reserve, which
// may be attachments later.
func newRelayChunk() *chunk {
	c := newChunk()
	c.state.chunks = []*chunk{c}
	c.stacks = make([][]uintptr, ChunkSamples)
	c.paths = &pathTable{pcs: make([]uintptr, 0, arenaSlab)}
	return c
}

// full reports whether the chunk can take no further sample or no
// further stack.
func (c *chunk) full() bool {
	return c.wn == ChunkSamples || c.wns == ChunkSamples
}

// stackTable returns the chunk's stack table, made on the first stack.
func (c *chunk) stackTable() [][]uintptr {
	if c.stacks == nil {
		c.stacks = make([][]uintptr, ChunkSamples)
	}
	return c.stacks
}

// pathTable is how AppendCallstack stores a call path once per chunk:
// its stacks are sub-slices of the arena pcs, and sums[i], the top half
// of hashPCs of stacks[i], goes in front of the comparison (an
// AppendStacked entry has none and is never matched).
type pathTable struct {
	pcs  []uintptr
	sums [ChunkSamples]uint32
}

// hashPCs hashes a call path: multiply-xor over whole PCs, so the high
// bits depend on every bit of every PC.
func hashPCs(pcs []uintptr) uint64 {
	h := uint64(len(pcs))
	for _, pc := range pcs {
		h = (h ^ uint64(pc)) * 0x9E3779B97F4A7C15
	}
	return h
}

// pathSet holds call paths, each once, in the order they were added,
// and finds one by hashPCs; a hash another path has taken is stepped.
// The block encoder's dictionary is one, and so is the table the trace
// reader keeps a Trace's stacks in.
type pathSet struct {
	paths [][]uintptr
	ids   map[uint64]int32 // hashPCs, stepped past collisions → index in paths
}

// find returns the index of pcs in the set, or ok false and the hash
// to add it under.
func (s *pathSet) find(pcs []uintptr) (id int32, h uint64, ok bool) {
	h = hashPCs(pcs)
	id, ok = s.ids[h]
	for ok && !slices.Equal(s.paths[id], pcs) {
		h++
		id, ok = s.ids[h]
	}
	return id, h, ok
}

// add appends pcs, which find did not find and gave h for, and returns
// its index. The set keeps pcs itself, not a copy.
func (s *pathSet) add(h uint64, pcs []uintptr) int32 {
	if s.ids == nil {
		s.ids = make(map[uint64]int32)
	}
	id := int32(len(s.paths))
	s.paths = append(s.paths, pcs)
	s.ids[h] = id
	return id
}

// bufState is the atomically published chunk list. The slice header is
// immutable once stored; growth publishes a new state whose backing
// array may extend the old one but never overwrites a slot a previous
// state exposed.
type bufState struct {
	chunks []*chunk
}

// Relay is the bounded hand-off between one attachment's recording
// threads and its streaming consumer: sealed chunks travel over C, and
// released ones go back to the process's reserve.
type Relay struct {
	C chan *SealedChunk

	// Warn, if set, is called by a sealing thread each time its push
	// leaves C three quarters full or more: the consumer is falling
	// behind, and once C is full the next chunks are shed. Set it
	// before the first buffer is routed here; it must not block.
	Warn func()
}

// NewRelay returns a relay that queues up to n sealed chunks.
func NewRelay(n int) *Relay {
	return &Relay{C: make(chan *SealedChunk, n)}
}

// reserve is the process's free list of released chunks, the one
// every relaying buffer takes its chunks from, attachment after
// attachment; a GC does not empty it. A chunk it keeps holds at most
// its 10 KiB of samples, its 6 KiB stack table (cleared), its path
// table and an arena of arenaSlab PCs: about 21 KiB, so the reserve's
// reserveChunks keep at most about 5.3 MiB. A chunk whose arena grew
// past its first slab is left to the collector.
const reserveChunks = 256

var reserve = freelist.New(reserveChunks, newRelayChunk, func(c *chunk) bool {
	return cap(c.paths.pcs) <= arenaSlab
})

// takeChunk returns an empty chunk off the reserve, or a new one if the
// reserve is empty; never a wait.
func takeChunk() *chunk {
	c := reserve.Get()
	c.wn, c.wns = 0, 0
	c.n.Store(0)
	c.nStacks.Store(0)
	c.paths.pcs = c.paths.pcs[:0]
	return c
}

// recycle puts a chunk no state lists and no reader holds into the
// reserve, its stack table cleared so that it keeps no stack alive.
// Only the slots it published can hold one: a chunk comes from
// newRelayChunk or from here, with every slot nil.
func recycle(c *chunk) {
	clear(c.stacks[:c.nStacks.Load()])
	reserve.Put(c)
}

// SealedChunk is a full chunk handed off from the owning thread to the
// streaming writer. Its counts are final. The consumer owns it until it
// calls Release, and must not touch it afterwards: the handle lives in
// the chunk, and the chunk's next seal reuses it.
type SealedChunk struct {
	thread int32
	c      *chunk
	b      *TraceBuffer
}

// Thread returns the thread tag the buffer was given in NewRelayBuffer.
func (s *SealedChunk) Thread() int32 { return s.thread }

// Len returns the number of samples in the sealed chunk.
func (s *SealedChunk) Len() int { return int(s.c.n.Load()) }

// views is the chunk as the block writers take it.
func (s *SealedChunk) views() []chunkView {
	return []chunkView{{c: s.c, n: s.c.n.Load(), nst: s.c.nStacks.Load()}}
}

// Release gives the chunk back to the reserve. seal published the
// state that no longer lists the chunk before it sent the chunk here,
// and every reader loads the state inside its bracket: one that can
// still see the chunk entered before that publish and has not left, so
// readers == 0 now means there is none, and any later reader loads a
// state without it. Otherwise the chunk is left to the collector.
func (s *SealedChunk) Release() {
	if s.b.readers.Load() == 0 {
		recycle(s.c)
	}
}

// TraceBuffer stores samples and interned callstacks for one thread.
//
// Buffers are strictly single-writer: only the owning thread may call
// Append, AppendStacked or AppendCallstack. The hot path
// is wait-free — a limit check, a cursor bump, and one release-store;
// no lock and no allocation until a chunk fills. Readers (Samples,
// Stack, Len, WriteTrace, the streamer) take a consistent snapshot
// through the atomically published chunk list without ever blocking
// the writer; each loads the list and uses it inside one reader bracket
// (enter/exit), which is what lets a relaying buffer recycle chunks.
//
// Reset bypasses the writer's cursors and therefore requires the
// writer to be quiescent (no concurrent append); the tool guarantees
// this by unregistering events and waiting for in-flight callbacks
// before its final flush.
type TraceBuffer struct {
	state   atomic.Pointer[bufState]
	readers atomic.Int32            // readers inside their bracket
	_       [cacheLinePad - 12]byte // readers' side; keep it off the writer's line

	// Writer-private fields, touched only by the owning thread.
	active   *chunk // the chunk being filled
	wc       int    // index of active in state.chunks
	retained int    // samples + stacks currently held, for the limit

	limit int

	// relay, when set, receives full chunks for write-behind storage;
	// thread tags them for the consumer. The push never blocks: if the
	// consumer falls behind the chunk is discarded and accounted.
	relay  *Relay
	thread int32

	// callers is where AppendCallstack walks a stack before storing
	// the part it keeps: room for a full path below the measurement
	// frames over a region's site, and whole cache lines, so the
	// padding below still ends the writer's part on a line boundary.
	callers [2 * callstackDepth]uintptr
	_       [cacheLinePad - 44 - 4]byte // Report polls the drop counters below

	dropped    atomic.Uint64 // samples lost to the limit or a full relay
	relayDrops atomic.Uint64 // sealed chunks discarded on a full relay
}

// NewTraceBuffer returns a buffer preallocated for capacity samples
// (rounded up to whole chunks). If limit > 0, the buffer stops
// recording (counting drops) once it retains limit entries; interned
// callstacks count toward the limit like samples, so the limit bounds
// measurement memory as a whole: a sample costs 1 and a newly stored
// stack 1; a sample whose call path AppendCallstack finds already in
// the chunk costs only its own 1.
func NewTraceBuffer(capacity, limit int) *TraceBuffer {
	nchunks := (capacity + ChunkSamples - 1) / ChunkSamples
	if nchunks < 1 {
		nchunks = 1
	}
	chunks := make([]*chunk, nchunks)
	for i := range chunks {
		chunks[i] = newChunk()
	}
	b := &TraceBuffer{limit: limit, active: chunks[0]}
	b.state.Store(&bufState{chunks: chunks})
	return b
}

// NewRelayBuffer returns a buffer that routes every filled chunk to r,
// tagged with thread, and holds one chunk, taken from the reserve like
// every chunk it seals into. limit is NewTraceBuffer's.
func NewRelayBuffer(r *Relay, thread int32, limit int) *TraceBuffer {
	c := takeChunk()
	c.stackBase = 0
	b := &TraceBuffer{limit: limit, active: c, relay: r, thread: thread}
	b.state.Store(&c.state)
	return b
}

// enter opens a reader bracket and returns the chunk list to use inside
// it, none of whose chunks is recycled before exit closes it.
func (b *TraceBuffer) enter() *bufState {
	b.readers.Add(1)
	return b.state.Load()
}

func (b *TraceBuffer) exit() { b.readers.Add(-1) }

// Append records a sample. Owning thread only.
func (b *TraceBuffer) Append(s Sample) {
	if b.limit > 0 && b.retained >= b.limit {
		b.dropped.Add(1)
		return
	}
	c := b.active
	if c.wn == ChunkSamples {
		c = b.seal()
	}
	c.samples[c.wn] = s
	c.wn++
	c.n.Store(c.wn) // release: publish the sample
	b.retained++
}

// AppendStacked records a sample together with its callstack, interning
// the stack only if the sample is actually recorded — a sample dropped
// at the limit must not leak a retained stack. The stack and the sample
// land in the same chunk so a streamed chunk is self-contained. Owning
// thread only.
func (b *TraceBuffer) AppendStacked(s Sample, pcs []uintptr) {
	if b.limit > 0 && b.retained >= b.limit {
		b.dropped.Add(1)
		return
	}
	b.appendStacked(s, pcs)
}

// AppendCallstack records s against the call path of its caller,
// skipping skip frames above it as Callstack does, with each path
// stored once per chunk. When s.Site is a return PC on the walk — a
// join's region site, one frame below the runtime's entry point — the
// path starts there, so it is the path from the region's call site to
// the root, whatever measurement frames the walk started in. It keeps
// at most callstackDepth frames. The walk goes into scratch the single
// writer owns; a sample dropped at the limit walks nothing. Owning
// thread only.
//
//go:noinline
func (b *TraceBuffer) AppendCallstack(s Sample, skip int) {
	if b.limit > 0 && b.retained >= b.limit {
		b.dropped.Add(1)
		return
	}
	pcs := b.callers[:Callers(skip+1, b.callers[:])]
	if s.Site != 0 {
		if i := slices.Index(pcs, uintptr(s.Site)); i > 0 {
			pcs = pcs[i:]
		}
	}
	b.appendPath(s, pcs[:min(len(pcs), callstackDepth)])
}

// appendPath is the store behind AppendCallstack: pcs is looked up
// among the chunk's stacks; a path already there costs the sample only,
// a new one is copied into the chunk's arena, so pcs may be scratch.
// The caller has checked the limit.
func (b *TraceBuffer) appendPath(s Sample, pcs []uintptr) {
	c := b.active
	if c.full() {
		c = b.seal()
	}
	sum := uint32(hashPCs(pcs) >> 32)
	p := c.paths
	if p == nil {
		p = &pathTable{pcs: make([]uintptr, 0, arenaSlab)}
		c.paths = p
	}
	for i, st := range c.stacks[:c.wns] {
		if p.sums[i] == sum && slices.Equal(st, pcs) {
			s.StackID = c.stackBase + int32(i)
			c.samples[c.wn] = s
			c.wn++
			c.n.Store(c.wn) // release: the stack was published before
			b.retained++
			return
		}
	}
	if cap(p.pcs)-len(p.pcs) < len(pcs) {
		// A new slab; the stacks already published keep the old one.
		p.pcs = make([]uintptr, 0, 2*cap(p.pcs))
	}
	at := len(p.pcs)
	p.pcs = append(p.pcs, pcs...)
	p.sums[c.wns] = sum
	b.publishStacked(c, s, p.pcs[at:len(p.pcs):len(p.pcs)])
}

// appendStacked interns a copy of pcs and records s against it; the
// caller has checked the limit.
func (b *TraceBuffer) appendStacked(s Sample, pcs []uintptr) {
	c := b.active
	if c.full() {
		c = b.seal()
	}
	cp := make([]uintptr, len(pcs))
	copy(cp, pcs)
	b.publishStacked(c, s, cp)
}

// publishStacked records s against st, a stack the chunk now owns.
func (b *TraceBuffer) publishStacked(c *chunk, s Sample, st []uintptr) {
	c.stackTable()[c.wns] = st
	s.StackID = c.stackBase + c.wns
	c.wns++
	c.nStacks.Store(c.wns) // release: publish the stack first
	c.samples[c.wn] = s
	c.wn++
	c.n.Store(c.wn) // ... then the sample referencing it
	b.retained += 2
}

// seal retires the active chunk and returns a fresh active chunk. With
// a relay configured that one comes off the reserve and the full chunk
// is handed to the consumer (or dropped, with accounting, if the
// consumer is behind); otherwise the writer advances into the next
// preallocated chunk or grows the list.
func (b *TraceBuffer) seal() *chunk {
	old := b.active
	if b.relay != nil {
		nc := takeChunk()
		nc.stackBase = old.stackBase + old.wns
		// Publish before the push: once the consumer has the old chunk,
		// no state that lists it can be loaded any more (see Release).
		b.state.Store(&nc.state)
		b.retained -= int(old.wn) + int(old.wns)
		b.active = nc
		b.wc = 0
		sc := &old.sealed
		*sc = SealedChunk{thread: b.thread, c: old, b: b}
		select {
		case b.relay.C <- sc: // the consumer's from here on
			if w := b.relay.Warn; w != nil && 4*len(b.relay.C) >= 3*cap(b.relay.C) {
				w()
			}
		default:
			// Bounded hand-off is full: discard rather than stall the
			// OpenMP thread, and account the loss explicitly.
			b.relayDrops.Add(1)
			b.dropped.Add(uint64(old.wn))
			sc.Release()
		}
		return nc
	}
	st := b.state.Load()
	if b.wc+1 < len(st.chunks) {
		nc := st.chunks[b.wc+1]
		nc.stackBase = old.stackBase + old.wns
		b.wc++
		b.active = nc
		return nc
	}
	nc := newChunk()
	nc.stackBase = old.stackBase + old.wns
	chunks := st.chunks
	if cap(chunks) > len(chunks) {
		// Extend in place: the new slot was never visible to any
		// previously published state, so old snapshots are unaffected.
		chunks = chunks[: len(chunks)+1 : cap(chunks)]
		chunks[len(chunks)-1] = nc
	} else {
		grown := make([]*chunk, len(chunks)+1, 2*len(chunks)+1)
		copy(grown, chunks)
		grown[len(grown)-1] = nc
		chunks = grown
	}
	b.state.Store(&bufState{chunks: chunks})
	b.wc = len(chunks) - 1
	b.active = nc
	return nc
}

// chunkView is a consistent per-chunk snapshot: the chunk and the
// published counts captured by snapshot().
type chunkView struct {
	c   *chunk
	n   int32
	nst int32
}

// stacks returns the captured stacks; the writer makes the table on
// the first stack, so it is read only behind a nonzero count.
func (v chunkView) stacks() [][]uintptr {
	if v.nst == 0 {
		return nil
	}
	return v.c.stacks[:v.nst]
}

// snapshot captures a consistent view of the buffer and the global
// stack ID of its first captured stack slot. All sample counts are
// read before any stack count: a stack is published before the sample
// that references it, so every stack referenced by a captured sample
// is itself captured. The views are good for as long as the bracket st
// was loaded in stays open.
func snapshot(st *bufState) ([]chunkView, int32) {
	views := make([]chunkView, len(st.chunks))
	for i, c := range st.chunks {
		views[i] = chunkView{c: c, n: c.n.Load()}
	}
	for i, c := range st.chunks {
		views[i].nst = c.nStacks.Load()
	}
	return views, st.chunks[0].stackBase
}

// Samples returns a snapshot copy of the recorded samples; it is safe
// to call while the owning thread is still appending.
func (b *TraceBuffer) Samples() []Sample {
	st := b.enter()
	defer b.exit()
	total := 0
	ns := make([]int32, len(st.chunks))
	for i, c := range st.chunks {
		ns[i] = c.n.Load()
		total += int(ns[i])
	}
	out := make([]Sample, 0, total)
	for i, c := range st.chunks {
		out = append(out, c.samples[:ns[i]]...)
	}
	return out
}

// Len returns the number of recorded samples without copying them.
func (b *TraceBuffer) Len() int {
	st := b.enter()
	defer b.exit()
	total := 0
	for _, c := range st.chunks {
		total += int(c.n.Load())
	}
	return total
}

// Stack returns a copy of the interned callstack for id, or nil. (A
// copy, not the interned slice: interned stacks are shared with
// concurrent snapshot readers and must stay immutable.)
func (b *TraceBuffer) Stack(id int32) []uintptr {
	if id < 0 {
		return nil
	}
	st := b.enter()
	defer b.exit()
	for _, c := range st.chunks {
		k := c.nStacks.Load()
		if k == 0 {
			continue
		}
		if id >= c.stackBase && id < c.stackBase+k {
			src := c.stacks[id-c.stackBase]
			cp := make([]uintptr, len(src))
			copy(cp, src)
			return cp
		}
	}
	return nil
}

// NumStacks returns the number of interned callstacks currently held.
func (b *TraceBuffer) NumStacks() int {
	st := b.enter()
	defer b.exit()
	total := 0
	for _, c := range st.chunks {
		total += int(c.nStacks.Load())
	}
	return total
}

// Dropped returns how many samples were discarded, whether at the
// retention limit or on a full relay channel.
func (b *TraceBuffer) Dropped() uint64 { return b.dropped.Load() }

// RelayDropped returns how many sealed chunks were discarded because
// the streaming consumer fell behind.
func (b *TraceBuffer) RelayDropped() uint64 { return b.relayDrops.Load() }

// Reset clears the buffer, retaining its chunk count. Like the append
// operations it belongs to the writer: it must not race with them.
func (b *TraceBuffer) Reset() {
	b.reset(len(b.state.Load().chunks))
	b.dropped.Store(0)
	b.relayDrops.Store(0)
}

// Retire empties a relaying buffer for good once its writer is
// quiescent, as a detach leaves it: its chunk goes back to the reserve
// under Release's rule, and the buffer stays a valid, empty buffer that
// holds no chunk of the reserve and keeps its drop counters. The state
// that no longer lists the chunk is published before the readers check,
// as seal does before its push. A buffer that is written again records
// in memory.
func (b *TraceBuffer) Retire() {
	old := b.active
	b.state.Store(&retired)
	b.active, b.wc, b.retained = retired.chunks[0], 0, 0
	if b.relay != nil && b.readers.Load() == 0 {
		recycle(old)
	}
	b.relay = nil
}

// retired is the chunk list of every retired buffer: one chunk whose
// cursor says full, so never written (a write seals it first, into a
// chunk of the buffer's own), and a list with no room, so never
// extended in place.
var retired = bufState{chunks: []*chunk{{wn: ChunkSamples}}}

func (b *TraceBuffer) reset(nchunks int) {
	chunks := make([]*chunk, nchunks)
	for i := range chunks {
		chunks[i] = newChunk()
	}
	b.active = chunks[0]
	b.wc = 0
	b.retained = 0
	b.state.Store(&bufState{chunks: chunks})
}

// Binary trace format: performance data is written out during or after
// the run and the user-model reconstruction happens offline, after the
// application finishes (§IV). The format is little-endian:
//
//	magic "PSXT", version uint32
//	nsamples uint64, then nsamples fixed-size records
//	nstacks uint64, then per stack: depth uint32, depth × uint64 PCs
//	dropped uint64

var traceMagic = [4]byte{'P', 'S', 'X', 'T'}

const traceVersion = 2

// sampleRecordLen is the fixed wire size of one v1 sample record:
// Time u64, Thread/Event/State u32, Region/Site u64, StackID u32.
// Only the v1 format has a meaningful record width; v2 blocks are
// variable-width, so counts must never be derived by dividing a byte
// length by this (use CountStreamSamples / BlockSamples instead).
const sampleRecordLen = 40

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("perf: malformed trace stream")

// WriteTrace serializes a snapshot of the buffer to w. It no longer
// blocks the owning thread: the snapshot is taken through the
// published chunk list, so it may run concurrently with appends.
// Stack IDs are rebased to the snapshot's own zero-based table.
func WriteTrace(w io.Writer, b *TraceBuffer) error {
	st := b.enter()
	defer b.exit()
	views, base0 := snapshot(st)
	return writeBlock(w, views, base0, b.dropped.Load())
}

// writeBlock serializes one trace block from chunk views: the shared
// backend of WriteTrace and the tests' SealedChunk.Encode. Stack IDs are
// rebased by base0; IDs falling outside the captured stack table (a
// stack shipped in an earlier block) degrade to NoStack.
func writeBlock(w io.Writer, views []chunkView, base0 int32, dropped uint64) error {
	// A bufio.Writer keeps the first error it meets and refuses every
	// write after it, so the fields go unchecked and Flush reports it.
	bw := bufio.NewWriter(w)
	bw.Write(traceMagic[:])
	var scratch [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		bw.Write(scratch[:4])
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		bw.Write(scratch[:8])
	}
	put32(traceVersion)
	var nsamples, nstacks uint64
	for _, v := range views {
		nsamples += uint64(v.n)
		nstacks += uint64(v.nst)
	}
	put64(nsamples)
	for _, v := range views {
		for i := int32(0); i < v.n; i++ {
			s := &v.c.samples[i]
			sid := s.StackID
			if sid != NoStack {
				rel := sid - base0
				if rel < 0 || uint64(rel) >= nstacks {
					sid = NoStack
				} else {
					sid = rel
				}
			}
			put64(uint64(s.Time))
			put32(uint32(s.Thread))
			put32(uint32(s.Event))
			put32(uint32(s.State))
			put64(s.Region)
			put64(s.Site)
			put32(uint32(sid))
		}
	}
	put64(nstacks)
	for _, v := range views {
		for i := int32(0); i < v.nst; i++ {
			st := v.c.stacks[i]
			put32(uint32(len(st)))
			for _, pc := range st {
				put64(uint64(pc))
			}
		}
	}
	put64(dropped)
	return bw.Flush()
}
