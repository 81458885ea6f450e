package perf

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"
)

// TraceReader reads a stream of trace blocks (v1 "PSXT" and v2 "PSX2"
// in any mix) one block at a time. It is the staging half of reading a
// trace: Next parses and validates the whole next block into scratch
// the reader owns and reuses from block to block, and Samples hands out
// what it staged. ReadTraceStream is the committing half, which gathers
// the blocks into one Trace; a caller with no use for a trace-wide
// stack table reads the blocks itself, and copies their samples once.
//
// When the stream can also seek (a regular file, a byte reader), it is
// skimmed first, as CountStreamSamples walks it, and the skim decides
// the prefix: Next gives at most the blocks the skim accepted, and Err
// then returns what stopped the skim. A last block whose header parses
// but whose body runs past the end of the stream is therefore the typed
// ErrCountMismatch rather than whatever its misaligned bytes would parse
// as, and a file that grows while it is read is read as it stood at the
// skim. Other streams are read to their end.
type TraceReader struct {
	br    *bufio.Reader // the stream; blocks are consumed from it in order
	left  int           // blocks still to read: the skim's count, or -1 to the end
	stop  error         // what ends the stream once left is 0
	bound int           // the skim's count

	// The staged block, valid from a successful Next to the next call.
	samples []Sample  // stack IDs index the block's own stack table
	pcs     []uintptr // the block's stacks, end to end
	ends    []int     // stack i is pcs[ends[i-1]:ends[i]]
	dropped uint64
	vals    []int64 // a v2 column, decoded before it is set in samples

	// The v2 payload of the block being staged.
	limit    io.LimitedReader // bounds what stored and raw may take
	stored   bytes.Buffer     // the declared extent, as the stream holds it
	deflated bytes.Reader     // stored, for the inflater to read
	inflate  io.ReadCloser    // made by the first flate block
	raw      bytes.Buffer     // the inflated payload of a flate block
}

// NewTraceReader returns a reader of the blocks of r, which it skims
// first when r can seek.
func NewTraceReader(r io.Reader) *TraceReader {
	d := &TraceReader{left: -1}
	if rs, ok := r.(io.ReadSeeker); ok {
		if at, err := rs.Seek(0, io.SeekCurrent); err == nil {
			n, blocks, err := skim(bufio.NewReader(rs), true)
			d.bound, d.left, d.stop = int(n), blocks, err
			if _, err := rs.Seek(at, io.SeekStart); err != nil {
				d.bound, d.left, d.stop = 0, 0, err
			}
		}
	}
	d.br = bufio.NewReader(r)
	return d
}

// Next stages the next block and reports whether it read whole. It
// returns false at the end of the stream and at the first block that
// fails, and from then on.
func (d *TraceReader) Next() bool {
	if d.left == 0 {
		return false
	}
	more, err := nextBlock(d.br)
	if more {
		if err = d.readBlock(); err == nil {
			d.left--
			return true
		}
	}
	d.left, d.stop = 0, err
	return false
}

// Samples returns the staged block's samples, valid until the next call
// of Next, which reuses them. Their stack IDs index the block's own
// stack table, which only ReadTraceStream resolves.
func (d *TraceReader) Samples() []Sample { return d.samples }

// Dropped returns how many samples the writer of the staged block
// dropped at capture.
func (d *TraceReader) Dropped() uint64 { return d.dropped }

// Err returns what stopped the reader once Next has returned false: nil
// at a clean end of the stream, an error wrapping ErrBadTrace at a torn
// or corrupt block, or the stream's own read error. The blocks before
// it are the stream's gap-free prefix.
func (d *TraceReader) Err() error {
	if d.left != 0 {
		return nil
	}
	return d.stop
}

// Bound returns the skim's count of the stream's samples, or 0 for a
// stream that was not skimmed. The skim counts a v2 block's samples at
// most one per bit of its payload, so the stream's bytes bound the count
// whatever its headers declare, and a slab of the samples may be made by
// it. Only a deflated block may give more samples than it counts.
func (d *TraceReader) Bound() int { return d.bound }

// readBlock stages the block at the head of the stream, whose four
// magic bytes the caller has seen buffered.
func (d *TraceReader) readBlock() error {
	h, err := readHeader(d.br)
	if err != nil {
		return err
	}
	if h.v2 {
		return d.stageV2(h)
	}
	return d.stageV1(h)
}

// blockHeader is the fixed header of one block, v1 or v2, as readHeader
// found it. A v1 header declares a version and a sample count, nothing
// else.
type blockHeader struct {
	v2      bool
	ver     uint32 // a PSX2 block's layout version
	flags   uint32
	ns, nst uint64 // declared samples and dictionary entries
	dropped uint64
	plen    uint64 // the stored payload's length
	crc     uint32
}

var errTornHeader = fmt.Errorf("%w: truncated block header", ErrBadTrace)

// readHeader is the one parse of a block's fixed header, for the decoder
// and the skim alike: it peeks the header of the block at the head of
// br, checks its magic, version, flags and declared bounds, and consumes
// it only when it is valid. A header torn anywhere past its magic is
// ErrBadTrace, in either format.
func readHeader(br *bufio.Reader) (h blockHeader, err error) {
	size := 16
	head, _ := br.Peek(4)
	if h.v2 = IsV2Block(head); h.v2 {
		size = v2HeaderLen
	} else if !bytes.Equal(head, traceMagic[:]) {
		return h, ErrBadTrace
	}
	b, err := br.Peek(size)
	if err != nil {
		return h, errTornHeader
	}
	h.ver = binary.LittleEndian.Uint32(b[4:8])
	switch {
	case !h.v2:
		h.ns = binary.LittleEndian.Uint64(b[8:16])
		if h.ver != traceVersion {
			return h, fmt.Errorf("perf: unsupported trace version %d", h.ver)
		}
	case !v2Decodable(h.ver):
		return h, errV2Version(h.ver)
	default:
		h.flags = binary.LittleEndian.Uint32(b[8:12])
		h.ns = binary.LittleEndian.Uint64(b[12:20])
		h.nst = binary.LittleEndian.Uint64(b[20:28])
		h.dropped = binary.LittleEndian.Uint64(b[28:36])
		h.plen = binary.LittleEndian.Uint64(b[36:44])
		h.crc = binary.LittleEndian.Uint32(b[44:48])
		if h.flags&^(flagV2Flate|flagV2Shift) != 0 {
			return h, errV2Flags
		}
	}
	if h.ns > maxReasonable || h.nst > maxReasonable || h.plen > maxV2Payload {
		return h, ErrBadTrace
	}
	br.Discard(size)
	return h, nil
}

// nextBlock is the one end-of-stream rule: it reports whether another
// block starts at the head of br. There is none, with no error, at a
// clean end of the stream; one to three stray bytes are a torn block,
// and a failed read is its own error.
func nextBlock(br *bufio.Reader) (bool, error) {
	head, err := br.Peek(4)
	switch {
	case len(head) == 4:
		return true, nil
	case err != io.EOF:
		return false, err
	case len(head) > 0:
		return false, fmt.Errorf("%w: truncated block", ErrBadTrace)
	}
	return false, nil
}

// traceBuilder is the committing half of reading a trace: commit, which
// only a block that staged whole reaches, adds the block's stacks to one
// table and its samples to one slab, and trace hands the two over as
// they are. A block that fails therefore leaves both exactly as the
// blocks before it made them: the salvage contract of ReadTraceStream.
// Every sample lies in the one slab and names its stack by an index into
// stacks, which holds each distinct path once, however many blocks
// carried it.
type traceBuilder struct {
	slab   []Sample
	stacks pathSet   // sub-slices of arena, in order of first commit
	arena  []uintptr // a full one is left to the stacks it holds
	remap  []int32   // the committing block's stack i → stacks entry
	lost   uint64    // the committed blocks' dropped counts
}

// commit adds the block r has staged: its stacks to the table first,
// each one a path the table already holds or a copy into the arena,
// then its samples to the slab, each stack ID rewritten from the
// block's table to the Trace's. A slab the samples outgrow doubles, so
// a stream nobody could count first is copied a bounded number of
// times. A v1 block's samples may name a stack its table does not have;
// such a sample keeps no stack, as the writers would have given it.
func (d *traceBuilder) commit(r *TraceReader) {
	d.remap = d.remap[:0]
	start := 0
	for _, end := range r.ends {
		d.remap = append(d.remap, d.intern(r.pcs[start:end]))
		start = end
	}
	at := len(d.slab)
	if need := at + len(r.samples); need > cap(d.slab) {
		grown := make([]Sample, at, max(need, 2*cap(d.slab)))
		copy(grown, d.slab)
		d.slab = grown
	}
	d.slab = append(d.slab, r.samples...)
	for i := at; i < len(d.slab); i++ {
		if id := d.slab[i].StackID; id != NoStack {
			if uint32(id) < uint32(len(d.remap)) {
				d.slab[i].StackID = d.remap[id]
			} else {
				d.slab[i].StackID = NoStack
			}
		}
	}
	d.lost += r.dropped
}

// intern returns the table's ID for the path pcs, adding a copy of it
// if the table does not hold it yet.
func (d *traceBuilder) intern(pcs []uintptr) int32 {
	id, h, ok := d.stacks.find(pcs)
	if ok {
		return id
	}
	if cap(d.arena)-len(d.arena) < len(pcs) {
		d.arena = make([]uintptr, 0, max(2*cap(d.arena), arenaSlab, len(pcs)))
	}
	at := len(d.arena)
	d.arena = append(d.arena, pcs...)
	return d.stacks.add(h, d.arena[at:len(d.arena):len(d.arena)])
}

// trace returns what has been committed: the slab, exactly the
// committed samples, and the table of distinct stacks.
func (d *traceBuilder) trace() *Trace {
	n, nst := len(d.slab), len(d.stacks.paths)
	return &Trace{samples: d.slab[:n:n], stacks: d.stacks.paths[:nst:nst], dropped: d.lost}
}

// Trace is a decoded trace, as ReadTraceStream returns it: every
// sample in one slab, each distinct call path once, and how many
// samples the writers dropped. It is never written after the reader
// returns it, so any number of goroutines may read it.
type Trace struct {
	samples []Sample    // the samples' StackIDs index stacks
	stacks  [][]uintptr // sub-slices of the decoder's arena
	dropped uint64
}

// Samples returns the samples themselves, without a copy. They are
// read-only; the slice's capacity is its length, so an append to it
// copies.
func (t *Trace) Samples() []Sample { return t.samples }

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.samples) }

// Stack returns a copy of the callstack for id, or nil.
func (t *Trace) Stack(id int32) []uintptr {
	if id < 0 || int(id) >= len(t.stacks) {
		return nil
	}
	return slices.Clone(t.stacks[id])
}

// NumStacks returns the number of distinct callstacks.
func (t *Trace) NumStacks() int { return len(t.stacks) }

// Dropped returns how many samples the writers of the trace's blocks
// dropped at capture.
func (t *Trace) Dropped() uint64 { return t.dropped }

// field consumes one little-endian v1 field of n bytes, 4 or 8. Past
// its header a v1 block has no finer diagnosis than "malformed".
func (d *TraceReader) field(n int) (uint64, error) {
	b, err := d.br.Peek(n)
	if err != nil {
		return 0, ErrBadTrace
	}
	var v [8]byte
	copy(v[:], b)
	d.br.Discard(n)
	return binary.LittleEndian.Uint64(v[:]), nil
}

// stageV1 parses the rest of a fixed-width PSXT block, past the header
// h; anything missing or malformed there is ErrBadTrace.
func (d *TraceReader) stageV1(h blockHeader) error {
	// The declared counts are untrusted until the records actually
	// parse, so the scratch grows with the bytes present, never from a
	// header (a truncated stream fails fast below).
	d.samples = d.samples[:0]
	for i := uint64(0); i < h.ns; i++ {
		rec, err := d.br.Peek(sampleRecordLen)
		if err != nil {
			return ErrBadTrace
		}
		d.samples = append(d.samples, Sample{
			Time:    int64(binary.LittleEndian.Uint64(rec[0:8])),
			Thread:  int32(binary.LittleEndian.Uint32(rec[8:12])),
			Event:   int32(binary.LittleEndian.Uint32(rec[12:16])),
			State:   int32(binary.LittleEndian.Uint32(rec[16:20])),
			Region:  binary.LittleEndian.Uint64(rec[20:28]),
			Site:    binary.LittleEndian.Uint64(rec[28:36]),
			StackID: int32(binary.LittleEndian.Uint32(rec[36:40])),
		})
		d.br.Discard(sampleRecordLen)
	}
	nst, err := d.field(8)
	if err != nil || nst > maxReasonable {
		return ErrBadTrace
	}
	d.pcs, d.ends = d.pcs[:0], d.ends[:0]
	for i := uint64(0); i < nst; i++ {
		depth, err := d.field(4)
		if err != nil || depth > maxStackDepth {
			return ErrBadTrace
		}
		for j := uint64(0); j < depth; j++ {
			pc, err := d.field(8)
			if err != nil {
				return err
			}
			d.pcs = append(d.pcs, uintptr(pc))
		}
		d.ends = append(d.ends, len(d.pcs))
	}
	d.dropped, err = d.field(8)
	return err
}

// varints is a v2 payload and how far it has been decoded. (An offset,
// not a shrinking slice: storing a slice through the receiver would put
// a GC write barrier on every value.)
type varints struct {
	buf []byte
	off int
}

// uvarint decodes the next value as it is stored; ok is false when the
// run ends, or overflows, before the value does.
func (p *varints) uvarint() (u uint64, ok bool) {
	u, n := binary.Uvarint(p.buf[p.off:])
	if n <= 0 {
		return 0, false
	}
	p.off += n
	return u, true
}

// single decodes the next run if it is a singleton whose word is one
// byte, which takes no call; ok is false, and nothing is consumed,
// otherwise.
func (p *varints) single() (v int64, ok bool) {
	if p.off < len(p.buf) && p.buf[p.off]&(0x80|3) == 0 {
		p.off++
		return unzigzag(uint64(p.buf[p.off-1] >> 2)), true
	}
	return 0, false
}

// oneByte decodes the next uvarint if it is one byte long, which takes no
// call; ok is false, and nothing is consumed, otherwise.
func (p *varints) oneByte() (u uint64, ok bool) {
	if p.off < len(p.buf) && p.buf[p.off] < 0x80 {
		p.off++
		return uint64(p.buf[p.off-1]), true
	}
	return 0, false
}

// next decodes the next value as a zigzag-mapped signed one.
func (p *varints) next() (v int64, ok bool) {
	u, ok := p.uvarint()
	return unzigzag(u), ok
}

// run decodes the next run word of a run-coded column, whatever its
// form: its value (for a delta column, the delta of the previous run's),
// its length and how many times it is set, which together may cover at
// most left samples. A repeat of the column's last run, whose length is
// last (0 before the first run), comes back with length 0.
func (p *varints) run(left, last int) (int64, int, int, error) {
	// The uvarint of zigzag(v)<<2 | kind (appendRunWord).
	if p.off >= len(p.buf) {
		return 0, 0, 0, errTruncatedV2
	}
	first := p.buf[p.off]
	p.off++
	zig := uint64(first&0x7f) >> 2
	if first >= 0x80 {
		rest, ok := p.oneByte()
		if !ok {
			rest, ok = p.uvarint()
		}
		if !ok || rest>>59 != 0 {
			return 0, 0, 0, errTruncatedV2
		}
		zig |= rest << 5
	}
	kind := first & 3
	if kind == runOne {
		return unzigzag(zig), 1, 1, nil
	}
	r, ok := p.oneByte()
	if !ok {
		r, ok = p.uvarint()
	}
	switch {
	case !ok:
		return 0, 0, 0, errTruncatedV2
	case kind == runMore && (r > uint64(left) || int(r)+2 > left):
		return 0, 0, 0, errRunPastCount
	case kind == runMore:
		return unzigzag(zig), int(r) + 2, 1, nil
	case kind != runRepeat || zig != 0 || last == 0:
		return 0, 0, 0, errBadRun
	case r >= uint64(left/last):
		return 0, 0, 0, errRunPastCount
	}
	return 0, 0, int(r) + 1, nil
}

// runs decodes the next run-coded column into vals, which it fills: the
// mirror of appendRuns. With delta, each run's value is the delta of the
// previous run's. A one-byte singleton, most of what does not repeat, is
// decoded without a call (single), anything else by run.
func (p *varints) runs(vals []int64, delta bool) error {
	var prev, w int64
	n := 0 // the last run's length
	for i := 0; i < len(vals); {
		reps := 1
		if s, ok := p.single(); ok {
			w, n = s, 1
		} else {
			v, l, r, err := p.run(len(vals)-i, n)
			if err != nil {
				return err
			}
			if l > 0 {
				w, n = v, l
			}
			reps = r
		}
		for ; reps > 0; reps-- {
			v := w
			if delta {
				prev += w
				v = prev
			}
			for end := i + n; i < end; i++ {
				vals[i] = v
			}
		}
	}
	return nil
}

var (
	errTruncatedV2  = fmt.Errorf("%w: truncated v2 payload", ErrBadTrace)
	errRunPastCount = fmt.Errorf("%w: v2 run past the declared sample count", ErrBadTrace)
	errRiceK        = fmt.Errorf("%w: v2 time parameter missing or out of range", ErrBadTrace)
	errBadRun       = fmt.Errorf("%w: bad v2 run word", ErrBadTrace)
	errStackIndex   = fmt.Errorf("%w: v2 stack index out of dictionary range", ErrBadTrace)
	errV2Flags      = fmt.Errorf("%w: unknown v2 block flags", ErrBadTrace)
)

// bitReader reads the Rice-coded time column: the bits of buf
// LSB-first, from bit at on (a uint64: a payload may hold 2^33 bits).
type bitReader struct {
	buf []byte
	at  uint64
}

// peek returns the 64 bits from at on, at least 57 of them buf's; a
// bit past the end of buf reads as zero.
func (r *bitReader) peek() uint64 {
	if i := int(r.at >> 3); i+8 <= len(r.buf) {
		return binary.LittleEndian.Uint64(r.buf[i:]) >> (r.at & 7)
	}
	var tail [8]byte
	copy(tail[:], r.buf[min(int(r.at>>3), len(r.buf)):])
	return binary.LittleEndian.Uint64(tail[:]) >> (r.at & 7)
}

// rice decodes the next delta of parameter k, the mirror of
// appendRice: the quotient's zero bits are the code's trailing zeros,
// and riceEscape of them are an escape, whose length and low 32 bits
// the same peek holds.
func (r *bitReader) rice(k uint) uint64 {
	w := r.peek()
	if q := uint(bits.TrailingZeros64(w)); q < riceEscape {
		r.at += uint64(q + 1 + k)
		return uint64(q)<<(k&63) | w>>((q+1)&63)&(1<<(k&63)-1) // counts masked: each shift one instruction
	}
	n := uint(w>>riceEscape&63) + 1
	lo := min(n, 32)
	r.at += uint64(riceEscape + 6 + lo)
	hi := r.peek() & (1<<(n-lo) - 1) // none when n <= 32
	r.at += uint64(n - lo)
	return hi<<32 | w>>(riceEscape+6)&(1<<lo-1)
}

// stageV2 parses the payload of a PSX2 block with header h, validating
// it in the order the format allows: the declared extent must be
// present, its CRC must match, and only then is it decoded — to exactly
// the declared sample and stack counts, every stack index inside the
// dictionary. Nothing is sized from the header: the scratch grows with
// the bytes that actually arrive.
func (d *TraceReader) stageV2(h blockHeader) error {
	d.dropped = h.dropped
	d.stored.Reset()
	d.limit = io.LimitedReader{R: d.br, N: int64(h.plen)}
	if _, err := d.stored.ReadFrom(&d.limit); err != nil || d.limit.N != 0 {
		return errTruncatedV2
	}
	if crc32.ChecksumIEEE(d.stored.Bytes()) != h.crc {
		return fmt.Errorf("%w: v2 payload checksum mismatch", ErrBadTrace)
	}
	p := varints{buf: d.stored.Bytes()}
	if h.flags&flagV2Flate != 0 {
		// The inflater holds nothing but memory, so it is reused and
		// never closed. Inflation stops one byte past the longest
		// payload the declared counts could need: a longer one is
		// refused below without being held. A sample costs each of the
		// seven run-coded columns at most one word of at most ten bytes (a
		// 66-bit run word takes ten, as a 64-bit varint does); a run's
		// length, four bytes at most, rides on a run of two samples or
		// more, whose second sample pays no word, and a repeat's two to
		// five bytes on a run of one sample or more. A Rice time code
		// takes at most 86 bits, an escape's 16 + 6 + 64, so eleven bytes
		// a sample hold the time column, and one byte more its parameter.
		// A dictionary entry takes its depth, its shared count and a PC
		// for each frame.
		d.deflated.Reset(d.stored.Bytes())
		if d.inflate == nil {
			d.inflate = flate.NewReader(&d.deflated)
		} else if err := d.inflate.(flate.Resetter).Reset(&d.deflated, nil); err != nil {
			return err
		}
		const perSample, perStack = 7*binary.MaxVarintLen64 + 11, (2 + maxStackDepth) * binary.MaxVarintLen64
		d.raw.Reset()
		d.limit = io.LimitedReader{R: d.inflate, N: int64(h.ns*perSample+h.nst*perStack) + 2}
		if _, err := d.raw.ReadFrom(&d.limit); err != nil {
			return errTruncatedV2
		}
		p.buf = d.raw.Bytes()
	}

	// One pass per column, each filling its field of the staged
	// samples; the time column sizes the scratch. The run-coded ones
	// follow in the order BlockEncoder.encode writes them, each decoded
	// into vals (runs, the mirror of appendRuns) and set from there.
	if len(p.buf) == 0 || p.buf[0] > maxRiceK {
		return errRiceK
	}
	d.samples = d.samples[:0]
	var t int64
	k, r := uint(p.buf[0]), bitReader{buf: p.buf[1:]}
	shift := uint(h.flags&flagV2Shift) >> flagV2ShiftAt
	for i := uint64(0); i < h.ns; i++ {
		t += int64(r.rice(k) << shift)
		if r.at > 8*uint64(len(r.buf)) {
			return errTruncatedV2
		}
		d.samples = append(d.samples, Sample{Time: t})
	}
	p.off = 1 + int((r.at+7)/8)
	var m predictor
	ss := d.samples
	if cap(d.vals) < len(ss) {
		d.vals = make([]int64, len(ss))
	}
	vals := d.vals[:len(ss)]
	for col := range 6 {
		if err := p.runs(vals, col == 0 || col == 3 || col == 4); err != nil {
			return err
		}
		switch col {
		case 0:
			for i := range ss {
				ss[i].Thread = int32(vals[i])
			}
		case 1:
			for i := range ss {
				ss[i].Event = m.event(int32(vals[i]), true)
			}
		case 2:
			for i := range ss {
				ss[i].State = m.state(ss[i].Event, int32(vals[i]), true)
			}
		case 3:
			for i := range ss {
				ss[i].Region = uint64(vals[i])
			}
		case 4:
			for i := range ss {
				ss[i].Site = uint64(vals[i])
			}
		case 5:
			if err := d.stageStackIDs(&p, &m, vals, h.nst); err != nil {
				return err
			}
		}
	}

	d.pcs, d.ends = d.pcs[:0], d.ends[:0]
	var prev []uintptr // the entry before, whose outer frames an entry may share
	for i := uint64(0); i < h.nst; i++ {
		depth, ok := p.uvarint()
		shared, ok2 := p.uvarint()
		if !ok || !ok2 || depth > maxStackDepth || shared > depth || shared > uint64(len(prev)) {
			return fmt.Errorf("%w: bad v2 stack entry", ErrBadTrace)
		}
		start := len(d.pcs)
		var pc uint64
		for j := uint64(0); j < depth-shared; j++ {
			v, ok := p.next()
			if !ok {
				return errTruncatedV2
			}
			pc += uint64(v)
			d.pcs = append(d.pcs, uintptr(pc))
		}
		d.pcs = append(d.pcs, prev[uint64(len(prev))-shared:]...)
		prev = d.pcs[start:]
		d.ends = append(d.ends, len(d.pcs))
	}
	if p.off != len(p.buf) {
		return fmt.Errorf("%w: v2 payload larger than declared counts", ErrBadTrace)
	}
	return nil
}

// stageStackIDs sets the staged samples' stacks from a block's two
// stack columns, whose first, each sample's stack presence against its
// prediction, is decoded into vals: it decodes the second, an index
// into the dictionary of nst entries for each sample that has a stack,
// into the front of vals.
func (d *TraceReader) stageStackIDs(p *varints, m *predictor, vals []int64, nst uint64) error {
	ss, stacked := d.samples, 0
	for i, v := range vals {
		if uint64(v) > 1 {
			return errBadRun
		}
		_, has := m.stack(ss[i].Event, int32(v), true)
		ss[i].StackID = NoStack + has // 0 is a placeholder for the sample's index, below
		stacked += int(has)
	}
	ids := vals[:stacked]
	if err := p.runs(ids, false); err != nil || stacked == 0 {
		return err
	}
	for i := range ss {
		if ss[i].StackID != NoStack {
			if ids[0] < 0 || uint64(ids[0]) >= nst {
				return errStackIndex
			}
			ss[i].StackID, ids = int32(ids[0]), ids[1:]
		}
	}
	return nil
}
