package perf

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// blockDecoder reads the trace blocks of one stream into one buffer.
// Reading a block has two halves that never overlap: the stage
// functions parse and validate the whole block into scratch the decoder
// owns and reuses from block to block, touching nothing committed;
// commit, reached only by a block that passed every check, adds the
// staged stacks to the stack table and the staged samples to the slab.
// A block that fails therefore leaves the slab and the table exactly as
// the blocks before it made them — the salvage contract of
// ReadTraceStream — and buffer hands the two over as they are.
type blockDecoder struct {
	br *bufio.Reader // the stream; blocks are consumed from it in order

	// What the committed blocks made. Every sample lies in the one slab
	// and names its stack by an index into stacks, which holds each
	// distinct path once, however many blocks carried it.
	slab   []Sample
	stacks pathSet   // sub-slices of arena, in order of first commit
	arena  []uintptr // a full one is left to the stacks it holds
	remap  []int32   // the committing block's stack i → stacks entry
	lost   uint64    // the committed blocks' dropped counts

	// The staged block, valid from a successful stage to its commit.
	samples []Sample  // stack IDs index the block's own stack table
	pcs     []uintptr // the block's stacks, end to end
	ends    []int     // stack i is pcs[ends[i-1]:ends[i]]
	dropped uint64

	// The v2 payload of the block being staged.
	limit    io.LimitedReader // bounds what stored and raw may take
	stored   bytes.Buffer     // the declared extent, as the stream holds it
	deflated bytes.Reader     // stored, for the inflater to read
	inflate  io.ReadCloser    // made by the first flate block
	raw      bytes.Buffer     // the inflated payload of a flate block
}

// newBlockDecoder returns a decoder over br whose slab starts with room
// for n samples: the bounded count of a stream it could skim first, or
// 0, from which the slab grows as blocks commit.
func newBlockDecoder(br *bufio.Reader, n int) *blockDecoder {
	return &blockDecoder{br: br, slab: make([]Sample, 0, n)}
}

// readBlock consumes the block at the head of the stream, whose four
// magic bytes the caller has seen buffered, and commits it.
func (d *blockDecoder) readBlock() error {
	head, _ := d.br.Peek(4)
	var err error
	if IsV2Block(head) {
		err = d.stageV2()
	} else {
		err = d.stageV1()
	}
	if err == nil {
		d.commit()
	}
	return err
}

// commit adds the staged block to what is committed: its stacks to the
// table first, each one a path the table already holds or a copy into
// the arena, then its samples to the slab, each stack ID rewritten from
// the block's table to the buffer's. A slab the samples outgrow doubles,
// so a stream nobody could count first is copied a bounded number of
// times. A v1 block's samples may name a stack its table does not have;
// such a sample keeps no stack, as the writers would have given it.
func (d *blockDecoder) commit() {
	d.remap = d.remap[:0]
	start := 0
	for _, end := range d.ends {
		d.remap = append(d.remap, d.intern(d.pcs[start:end]))
		start = end
	}
	at := len(d.slab)
	if need := at + len(d.samples); need > cap(d.slab) {
		grown := make([]Sample, at, max(need, 2*cap(d.slab)))
		copy(grown, d.slab)
		d.slab = grown
	}
	d.slab = append(d.slab, d.samples...)
	for i := at; i < len(d.slab); i++ {
		if id := d.slab[i].StackID; id != NoStack {
			if uint32(id) < uint32(len(d.remap)) {
				d.slab[i].StackID = d.remap[id]
			} else {
				d.slab[i].StackID = NoStack
			}
		}
	}
	d.lost += d.dropped
}

// intern returns the table's ID for the path pcs, adding a copy of it
// if the table does not hold it yet.
func (d *blockDecoder) intern(pcs []uintptr) int32 {
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

// buffer returns what has been committed as a TraceBuffer of one chunk:
// the slab, exactly the committed samples, and the table of distinct
// stacks. The chunk is full, so the buffer's first append seals it and
// goes on in a chunk of its own, and Samples hands the slab out without
// a copy until then.
func (d *blockDecoder) buffer() *TraceBuffer {
	n, nst := len(d.slab), len(d.stacks.paths)
	c := &chunk{samples: d.slab[:n:n], stacks: d.stacks.paths[:nst:nst], wn: int32(n), wns: int32(nst), slab: true}
	c.n.Store(c.wn)
	c.nStacks.Store(c.wns)
	b := &TraceBuffer{active: c, retained: n + nst}
	b.state.Store(&bufState{chunks: []*chunk{c}})
	b.dropped.Store(d.lost)
	return b
}

// u32 and u64 consume one little-endian v1 field. Past its header a
// v1 block has no finer diagnosis than "malformed".
func (d *blockDecoder) u32() (uint32, error) {
	b, err := d.br.Peek(4)
	if err != nil {
		return 0, ErrBadTrace
	}
	v := binary.LittleEndian.Uint32(b)
	d.br.Discard(4)
	return v, nil
}

func (d *blockDecoder) u64() (uint64, error) {
	b, err := d.br.Peek(8)
	if err != nil {
		return 0, ErrBadTrace
	}
	v := binary.LittleEndian.Uint64(b)
	d.br.Discard(8)
	return v, nil
}

// stageV1 parses one fixed-width PSXT block (magic included). A block
// torn inside its 16-byte header reports the bare io error, as
// io.ReadFull over the header would; everything after is ErrBadTrace.
func (d *blockDecoder) stageV1() error {
	hdr, err := d.br.Peek(16)
	if len(hdr) >= 4 && !bytes.Equal(hdr[:4], traceMagic[:]) {
		return ErrBadTrace
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	ver := binary.LittleEndian.Uint32(hdr[4:8])
	ns := binary.LittleEndian.Uint64(hdr[8:16])
	d.br.Discard(16)
	if ver != traceVersion {
		return fmt.Errorf("perf: unsupported trace version %d", ver)
	}
	if ns > maxReasonable {
		return ErrBadTrace
	}
	// The declared counts are untrusted until the records actually
	// parse, so the scratch grows with the bytes present, never from a
	// header (a truncated stream fails fast below).
	d.samples = d.samples[:0]
	for i := uint64(0); i < ns; i++ {
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
	nst, err := d.u64()
	if err != nil || nst > maxReasonable {
		return ErrBadTrace
	}
	d.pcs, d.ends = d.pcs[:0], d.ends[:0]
	for i := uint64(0); i < nst; i++ {
		depth, err := d.u32()
		if err != nil || depth > maxStackDepth {
			return ErrBadTrace
		}
		for j := uint32(0); j < depth; j++ {
			pc, err := d.u64()
			if err != nil {
				return err
			}
			d.pcs = append(d.pcs, uintptr(pc))
		}
		d.ends = append(d.ends, len(d.pcs))
	}
	d.dropped, err = d.u64()
	return err
}

// varints is a v2 payload and how far it has been decoded. (An offset,
// not a shrinking slice: storing a slice through the receiver would put
// a GC write barrier on every value.)
type varints struct {
	buf []byte
	off int
	// flag is the width of the more flag in front of a run-coded column's
	// values: 1 in a version-2 block, 0 in a version-1 block, whose
	// columns are runs of one sample each.
	flag uint8
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
	if p.off < len(p.buf) && p.buf[p.off]&(0x80|p.flag) == 0 {
		p.off++
		return unzigzag(uint64(p.buf[p.off-1] >> p.flag)), true
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

// next decodes the next value as a zigzag-mapped signed one. Most are
// one byte (an event or state in a version-1 block) or two (a time
// delta), so those cases do not go through the general loop.
func (p *varints) next() (v int64, ok bool) {
	if p.off+1 < len(p.buf) {
		b0, b1 := p.buf[p.off], p.buf[p.off+1]
		if b0 < 0x80 {
			p.off++
			return unzigzag(uint64(b0)), true
		}
		if b1 < 0x80 {
			p.off += 2
			return unzigzag(uint64(b0&0x7f) | uint64(b1)<<7), true
		}
	}
	u, ok := p.uvarint()
	return unzigzag(u), ok
}

// run decodes the next run of a run-coded column, whatever its form:
// its value (for a delta column, the delta of the previous run's) and
// its length, which may be at most left.
func (p *varints) run(left int) (int64, int, error) {
	if p.flag == 0 {
		v, ok := p.next()
		if !ok {
			return 0, 0, errTruncatedV2
		}
		return v, 1, nil
	}
	// The 65-bit uvarint of zigzag(v)<<1 | more (appendRunWord).
	if p.off >= len(p.buf) {
		return 0, 0, errTruncatedV2
	}
	first := p.buf[p.off]
	p.off++
	zig := uint64(first&0x7f) >> 1
	if first >= 0x80 {
		rest, ok := p.oneByte()
		if !ok {
			rest, ok = p.uvarint()
		}
		if !ok || rest>>58 != 0 {
			return 0, 0, errTruncatedV2
		}
		zig |= rest << 6
	}
	if first&1 == 0 {
		return unzigzag(zig), 1, nil
	}
	r, ok := p.oneByte()
	if !ok {
		r, ok = p.uvarint()
	}
	if !ok {
		return 0, 0, errTruncatedV2
	}
	if r > uint64(left) || int(r)+2 > left {
		return 0, 0, errRunPastCount
	}
	return unzigzag(zig), int(r) + 2, nil
}

var (
	errTruncatedV2  = fmt.Errorf("%w: truncated v2 payload", ErrBadTrace)
	errRunPastCount = fmt.Errorf("%w: v2 run past the declared sample count", ErrBadTrace)
)

// stageV2 parses one PSX2 block (magic included), validating it in the
// order the format allows: the declared extent must be present, its
// CRC must match, and only then is it decoded — to exactly the
// declared sample and stack counts, every stack index inside the
// dictionary. Nothing is sized from the header: the scratch grows with
// the bytes that actually arrive.
func (d *blockDecoder) stageV2() error {
	hdr, err := d.br.Peek(v2HeaderLen)
	if err != nil {
		return fmt.Errorf("%w: truncated v2 header", ErrBadTrace)
	}
	ver := binary.LittleEndian.Uint32(hdr[4:8])
	if !v2Decodable(ver) {
		return errV2Version(ver)
	}
	flags := binary.LittleEndian.Uint32(hdr[8:12])
	ns := binary.LittleEndian.Uint64(hdr[12:20])
	nst := binary.LittleEndian.Uint64(hdr[20:28])
	d.dropped = binary.LittleEndian.Uint64(hdr[28:36])
	plen := binary.LittleEndian.Uint64(hdr[36:44])
	wantCRC := binary.LittleEndian.Uint32(hdr[44:48])
	d.br.Discard(v2HeaderLen)
	if ns > maxReasonable || nst > maxReasonable || plen > maxV2Payload {
		return ErrBadTrace
	}

	d.stored.Reset()
	d.limit = io.LimitedReader{R: d.br, N: int64(plen)}
	if _, err := d.stored.ReadFrom(&d.limit); err != nil || d.limit.N != 0 {
		return errTruncatedV2
	}
	if crc32.ChecksumIEEE(d.stored.Bytes()) != wantCRC {
		return fmt.Errorf("%w: v2 payload checksum mismatch", ErrBadTrace)
	}
	p := varints{buf: d.stored.Bytes()}
	if ver == traceV2Version {
		p.flag = 1
	}
	if flags&flagV2Flate != 0 {
		// The inflater holds nothing but memory, so it is reused and
		// never closed. Inflation stops one byte past the longest
		// payload the declared counts could need: a longer one is
		// refused below without being held. A sample costs each column
		// at most one word of at most ten bytes (a 65-bit run word takes
		// ten, as a 64-bit varint does); a run's length, four bytes at
		// most, rides on a run of two samples or more, whose second
		// sample pays no word.
		d.deflated.Reset(d.stored.Bytes())
		if d.inflate == nil {
			d.inflate = flate.NewReader(&d.deflated)
		} else if err := d.inflate.(flate.Resetter).Reset(&d.deflated, nil); err != nil {
			return err
		}
		const perSample, perStack = 7 * binary.MaxVarintLen64, (1 + maxStackDepth) * binary.MaxVarintLen64
		d.raw.Reset()
		d.limit = io.LimitedReader{R: d.inflate, N: int64(ns*perSample+nst*perStack) + 1}
		if _, err := d.raw.ReadFrom(&d.limit); err != nil {
			return errTruncatedV2
		}
		p.buf = d.raw.Bytes()
	}

	// One pass per column, each filling its field of the staged
	// samples; the first column sizes the scratch. The run-coded ones
	// fill a run at a time: a one-byte singleton, most of what does not
	// repeat, is decoded without a call (single), anything else by run.
	d.samples = d.samples[:0]
	var t int64
	for i := uint64(0); i < ns; i++ {
		v, ok := p.next()
		if !ok {
			return errTruncatedV2
		}
		t += v
		d.samples = append(d.samples, Sample{Time: t})
	}
	ss := d.samples
	var th, region, site int64 // runs of these columns carry deltas
	for i := 0; i < len(ss); {
		v, n := int64(0), 1
		if s, ok := p.single(); ok {
			v = s
		} else if v, n, err = p.run(len(ss) - i); err != nil {
			return err
		}
		th += v
		for end := i + n; i < end; i++ {
			ss[i].Thread = int32(th)
		}
	}
	for i := 0; i < len(ss); {
		v, n := int64(0), 1
		if s, ok := p.single(); ok {
			v = s
		} else if v, n, err = p.run(len(ss) - i); err != nil {
			return err
		}
		for end := i + n; i < end; i++ {
			ss[i].Event = int32(v)
		}
	}
	for i := 0; i < len(ss); {
		v, n := int64(0), 1
		if s, ok := p.single(); ok {
			v = s
		} else if v, n, err = p.run(len(ss) - i); err != nil {
			return err
		}
		for end := i + n; i < end; i++ {
			ss[i].State = int32(v)
		}
	}
	for i := 0; i < len(ss); {
		v, n := int64(0), 1
		if s, ok := p.single(); ok {
			v = s
		} else if v, n, err = p.run(len(ss) - i); err != nil {
			return err
		}
		region += v
		for end := i + n; i < end; i++ {
			ss[i].Region = uint64(region)
		}
	}
	for i := 0; i < len(ss); {
		v, n := int64(0), 1
		if s, ok := p.single(); ok {
			v = s
		} else if v, n, err = p.run(len(ss) - i); err != nil {
			return err
		}
		site += v
		for end := i + n; i < end; i++ {
			ss[i].Site = uint64(site)
		}
	}
	for i := 0; i < len(ss); {
		v, n := int64(0), 1
		if s, ok := p.single(); ok {
			v = s
		} else if v, n, err = p.run(len(ss) - i); err != nil {
			return err
		}
		if v != int64(NoStack) && (v < 0 || uint64(v) >= nst) {
			return fmt.Errorf("%w: v2 stack index out of dictionary range", ErrBadTrace)
		}
		for end := i + n; i < end; i++ {
			ss[i].StackID = int32(v)
		}
	}

	d.pcs, d.ends = d.pcs[:0], d.ends[:0]
	for i := uint64(0); i < nst; i++ {
		depth, ok := p.uvarint()
		if !ok || depth > maxStackDepth {
			return fmt.Errorf("%w: bad v2 stack entry", ErrBadTrace)
		}
		var pc uint64
		for j := uint64(0); j < depth; j++ {
			v, ok := p.next()
			if !ok {
				return errTruncatedV2
			}
			pc += uint64(v)
			d.pcs = append(d.pcs, uintptr(pc))
		}
		d.ends = append(d.ends, len(d.pcs))
	}
	if p.off != len(p.buf) {
		return fmt.Errorf("%w: v2 payload larger than declared counts", ErrBadTrace)
	}
	return nil
}
