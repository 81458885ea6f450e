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
	"sync"

	"goomp/internal/freelist"
)

// Trace format v2: the compact block encoding that keeps always-on
// capture affordable at fleet scale. A v1 block spends a fixed 40
// bytes per sample; most of those bytes are redundancy — timestamps
// are monotone within a chunk, the thread column is constant, region
// and site IDs repeat, events follow the protocol's fixed order, and
// join stacks recur. A v2 block stores the same samples as varint
// columns — times as deltas, the rest as runs of equal values — the
// block's stacks as a content-deduplicated dictionary, and (optionally)
// the whole payload deflated with the stdlib flate — all work done in
// the writer/streamer goroutine, never on the recording thread.
//
// Layout (little-endian):
//
//	magic "PSX2", version uint32 (6; version 5 is read, never written)
//	flags uint32 (bit 0: payload is flate-compressed; bits 8–13: shift)
//	nsamples uint64, nstacks uint64 (dictionary entries), dropped uint64
//	payloadLen uint64, payloadCRC uint32 (IEEE, over the stored bytes)
//	payloadLen bytes of payload
//
// The payload (after decompression when flagged) is columnar:
//
//	times    k byte, then nsamples Rice codes (delta of previous, starting 0, >> shift)
//	threads  runs of equal values, each the delta of the previous run's
//	events   runs of equal values, each the event XOR its prediction
//	states   runs of equal values, each the state XOR its prediction
//	regions  runs of equal values, each the delta of the previous run's
//	sites    runs of equal values, each the delta of the previous run's
//	stacked  runs of equal values, each whether the sample has a stack XOR its prediction
//	stackIDs runs of equal values, a dictionary index for each sample that has a stack
//	stacks   nstacks × (uvarint depth, uvarint shared, (depth − shared) × uvarint(zigzag(PC delta)))
//
// A time delta is two's-complement: a thread's clock never goes back,
// so a delta is small and positive, and one that is negative still
// round-trips, as an escape. Every delta of the block is a multiple of
// 2^shift, and the column stores d = uint64(delta) >> shift: shift is
// the trailing zeros of the OR of the block's deltas, or 0 when none is
// non-zero, so a clock that rounds to ClockQuantum stores none of the
// bits it rounded off, and any times still round-trip. The time column
// is Rice-coded, bit-packed LSB-first and padded to a byte: d is its
// quotient q = d>>k as q zero bits and a one bit, then d's k low bits. A
// quotient of riceEscape or more is written as riceEscape zero bits,
// six bits of d's bit length less one, and then that many bits of d:
// the block's first time, a negative delta and an outlier escape. The
// encoder picks k, at most maxRiceK, for the block (riceK). The other
// flag bits are refused.
//
// An event is predicted to be the event that last followed the event
// before it in the block, a state to be the state that last came with
// its event, and a stack to be there when the last sample of its event
// had one (predictor; all start from zero in every block), so a column
// of protocol-ordered brackets, and the stacks the tool takes at JOIN
// only, are mostly runs of 0.
//
// A run is the longest stretch of neighbouring samples that hold one
// value in that column, and is written as the 66-bit uvarint of
// zigzag(v)<<2 | kind: kind 0 is one sample; kind 1 a run of two or
// more, followed by uvarint(length − 2); kind 2, whose v is 0, the
// previous run again — the same word, so a delta column adds its delta
// again, and the same length — k+1 times, followed by uvarint(k). Kind
// 3, and a repeat with no run before it in the column, are refused.
// Most of a block's samples repeat the sample before them in every
// column but time — the thread throughout a per-thread block, the
// region and site inside a region — so most columns shrink to a few
// runs, and a team repeats its region shape, so the region column's
// (+1, length) runs collapse into a few repeats. A repeat never reaches
// into another block: every column starts afresh. Deltas are
// two's-complement and so may be any uint64, which is why the kind
// takes two bits past the value's 64. The runs of a column cover
// exactly its samples (nsamples, or the samples that have a stack); a
// run past that is refused.
//
// A dictionary entry's last shared PCs are the previous entry's last
// shared PCs, so only its depth − shared innermost frames are written:
// the join paths of one block mostly differ in their innermost frames.
// shared is at most depth and the previous entry's depth (0 for the
// first entry).
//
// Version 5 wrote no shift, so its bits 8–13 are 0, and it is read as
// a version-6 block of shift 0. The readers decode the version written
// and the one before it (v2Decodable) and refuse every other.
//
// Unlike v1, the header states the payload's exact byte extent and its
// checksum, so a block whose declared counts disagree with its bytes
// is structurally detectable: the declared extent either fails the CRC
// or fails to decode to exactly the declared counts. The CRC covers
// the stored (post-compression) bytes — the same bytes a journal or a
// resend path checksums — so one hash guards both the wire copy and
// the disk copy.

var traceV2Magic = [4]byte{'P', 'S', 'X', '2'}

const (
	// traceV2Version is the layout every PSX2 block is written in;
	// v2Decodable says which versions the readers decode.
	traceV2Version = 6

	// riceEscape is the quotient from which a time delta is
	// escaped, and maxRiceK the largest parameter a block may declare: a
	// code that does not escape then takes at most 56 bits, which one
	// 64-bit load at any bit offset holds whole.
	riceEscape = 16
	maxRiceK   = 40

	// flagV2Flate marks a flate-compressed payload, and the six bits of
	// flagV2Shift from flagV2ShiftAt on hold the time column's shift.
	flagV2Flate   = 1 << 0
	flagV2ShiftAt = 8
	flagV2Shift   = 63 << flagV2ShiftAt

	// maxReasonable caps header-declared sample/stack counts, shared
	// with the v1 reader: a corrupt header must not drive a huge
	// parse loop.
	maxReasonable = 1 << 26

	// maxV2Payload caps the declared payload extent of one v2 block.
	maxV2Payload = 1 << 30

	// maxStackDepth caps one callstack's declared depth (both formats).
	maxStackDepth = 4096

	v2HeaderLen = 48
)

// Encoding selects the block format WriteTraceEnc emits. The zero
// value is the fixed-width v1 format, which nothing in tool or cmd
// writes any more: it stays as the reference writer that tests, fuzz
// seeds and the benchmark's v1-versus-v2 probes compare against, and as
// the producer of the v1 blocks every reader must keep opening. V2
// selects the compact columnar format, and Flate additionally deflates
// each v2 block's payload. Readers auto-detect the format per block, so
// a stream may mix v1 and v2 blocks.
type Encoding struct {
	V2    bool
	Flate bool
}

// ErrCountMismatch reports a trace block whose header parsed but whose
// body runs past the end of the stream: the header declares more — v1
// records, or a v2 payload length — than the bytes present hold, as a
// torn tail leaves it. The skim reports it: CountStreamSamples,
// BlockSamples, and ReadTraceStream on a stream it can seek; a stream
// read without a skim reports such a tail as plain ErrBadTrace. It
// wraps ErrBadTrace, so the salvage contract (gap-free prefix plus a
// non-nil error) is unchanged; the typed sentinel only names the damage
// precisely.
var ErrCountMismatch = fmt.Errorf("%w: declared sample count disagrees with payload length", ErrBadTrace)

// WriteTraceEnc serializes a snapshot of the buffer to w in the given
// encoding; WriteTraceEnc with a zero Encoding is WriteTrace.
func WriteTraceEnc(w io.Writer, b *TraceBuffer, enc Encoding) error {
	if !enc.V2 {
		return WriteTrace(w, b)
	}
	e := blockEncoders.Get().(*BlockEncoder)
	defer blockEncoders.Put(e)
	block, err := e.encodeBuffer(b, enc.Flate)
	if err != nil {
		return err
	}
	_, err = w.Write(block)
	return err
}

// blockEncoders is a sync.Pool, not a bounded free list: an encoder can
// hold a flate writer and scratch sized by a whole-buffer snapshot, so a
// GC must be able to reclaim it.
var blockEncoders = sync.Pool{New: func() any { return new(BlockEncoder) }}

// IsV2Block reports whether b begins with a v2 trace block header.
func IsV2Block(b []byte) bool {
	return len(b) >= 4 && bytes.Equal(b[:4], traceV2Magic[:])
}

// zigzag maps signed values to unsigned ones with small absolute
// values staying small (the protobuf encoding): 0→0, -1→1, 1→2, …
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// v2Decodable reports whether the readers decode PSX2 blocks of version
// ver: the version written and the one before it, and no other. It is
// the one place that window is stated. The skim counts no other
// version, so psxd never acks or stores a block no reader opens.
func v2Decodable(ver uint32) bool { return ver == traceV2Version || ver == traceV2Version-1 }

func errV2Version(ver uint32) error { return fmt.Errorf("perf: unsupported v2 trace version %d", ver) }

// predictor is the model of a block's event, state and stack presence
// columns (see the layout above), the writer's and the reader's alike:
// the event that last followed each event, the state each event last
// carried and whether its last sample had a stack, all looked up by the
// event's low byte. A block starts it from
// zero, so every block still decodes alone.
type predictor struct {
	prev    int32
	follows [256]int32
	stateOf [256]int32
	stackOf [256]int32 // 1 where the event's last sample had a stack
}

// learn codes one word against the prediction in slot: a value to the
// word stored, or, with stored, a stored word back to its value. XOR is
// its own inverse, so both are w XOR the prediction; slot then learns
// the value, which learn returns after the word.
func learn(slot *int32, w int32, stored bool) (out, value int32) {
	out = w ^ *slot
	if stored {
		w = out
	}
	*slot = w
	return out, w
}

// event codes one word of the event column.
func (m *predictor) event(w int32, stored bool) int32 {
	out, ev := learn(&m.follows[uint8(m.prev)], w, stored)
	m.prev = ev
	return out
}

// state codes one word of the state column, of a sample of event ev.
func (m *predictor) state(ev, w int32, stored bool) int32 {
	out, _ := learn(&m.stateOf[uint8(ev)], w, stored)
	return out
}

// stack codes one word of the stack presence column, of a sample of
// event ev, whose value is 1 for a sample that has a stack and 0 for
// one that has none.
func (m *predictor) stack(ev, w int32, stored bool) (out, value int32) {
	return learn(&m.stackOf[uint8(ev)], w, stored)
}

// The kinds of a run word (see the layout above).
const (
	runOne = iota
	runMore
	runRepeat
)

// appendRuns appends the column vals run-coded (see the layout above);
// with delta, each run is written as the delta of the previous run's
// value. Runs that repeat the one before them are counted in reps and
// written as one repeat. A singleton that fits the first byte, most of
// what does not repeat, is appended without a call.
func appendRuns(b []byte, vals []int64, delta bool) []byte {
	var prev, last int64
	n, reps := 0, 0 // the last run written's length (0: none yet), and the runs since that repeat it
	for i := 0; i < len(vals); {
		v := vals[i]
		j := i + 1
		for j < len(vals) && vals[j] == v {
			j++
		}
		w := v
		if delta {
			w, prev = v-prev, v // wraps: a two's-complement delta
		}
		if j-i == n && w == last {
			reps, i = reps+1, j
			continue
		}
		b, reps = appendRepeats(b, reps), 0
		zig := zigzag(w)
		switch {
		case j-i > 1:
			b = binary.AppendUvarint(appendRunWord(b, zig, runMore), uint64(j-i-2))
		case zig < 0x20:
			b = append(b, byte(zig<<2))
		default:
			b = appendRunWord(b, zig, runOne)
		}
		last, n, i = w, j-i, j
	}
	return appendRepeats(b, reps)
}

// appendRepeats appends a repeat of the last run written reps times, if
// reps is not 0.
func appendRepeats(b []byte, reps int) []byte {
	if reps == 0 {
		return b
	}
	return binary.AppendUvarint(append(b, runRepeat), uint64(reps-1))
}

// appendRunWord appends the 66-bit uvarint of zig<<2 | kind: the first
// byte carries kind and zig's low five bits, and the bytes after it are
// the plain uvarint of the rest of zig.
func appendRunWord(b []byte, zig uint64, kind byte) []byte {
	first := byte(zig&0x1f)<<2 | kind
	if rest := zig >> 5; rest != 0 {
		return binary.AppendUvarint(append(b, first|0x80), rest)
	}
	return append(b, first)
}

// riceK estimates from the deltas' bit-length histogram the parameter
// that codes n of them in the fewest bits, trying the median length and
// its two neighbours. A delta whose length is e bits past k costs 1+k
// bits and a quotient of about 1.5·2^(e-1) (0 when e is 0), or, when e
// is 5 or more, the escape's riceEscape+6 bits and its own length.
// Costs are doubled to stay whole, and lengths that escape at every k
// tried, which cost the same at each, are left out.
func riceK(hist []int, n int) uint {
	med := 0
	for seen := hist[0]; 2*seen < n; seen += hist[med] {
		med++
	}
	best, least := 0, -1
	for k := min(max(med-1, 0), maxRiceK); k <= min(med+1, maxRiceK); k++ {
		cost := 0
		for l, c := range hist[:min(med+6, len(hist))] {
			if e := max(l-k, 0); e < 5 {
				cost += c * (2*(1+k) + 3<<e>>1 - 1)
			} else {
				cost += c * 2 * (riceEscape + 6 + l)
			}
		}
		if least < 0 || cost < least {
			best, least = k, cost
		}
	}
	return uint(best)
}

// appendRice appends the time column of the deltas ds, each shifted
// down by shift, for parameter k (see the layout above), padded to a
// byte.
func appendRice(b []byte, ds []int64, k, shift uint) []byte {
	b = slices.Grow(append(b, byte(k)), 11*len(ds)+8) // at most 86 bits a code, and a word to spare
	at, out := len(b), b[:cap(b)]
	var acc uint64 // the n < 8 bits not yet past out[at], the oldest lowest
	var n uint
	for _, d := range ds {
		u := uint64(d) >> (shift & 63) // counts masked: each shift one instruction
		q := u >> (k & 63)
		v, w := u&(1<<(k&63)-1)<<((q+1)&63)|1<<(q&63), uint(q)+1+k
		if q >= riceEscape { // the escape, its length and low 32 bits, then the rest
			l := uint(bits.Len64(u))
			lo := min(l, 32)
			at, acc, n = putBits(out, at, acc, n, u&(1<<lo-1)<<(riceEscape+6)|uint64(l-1)<<riceEscape, riceEscape+6+lo)
			v, w = u>>32, l-lo
		}
		at, acc, n = putBits(out, at, acc, n, v, w)
	}
	return b[:at+int(n+7)/8] // the last putBits left the padded byte at out[at]
}

// putBits writes the w low bits of v, w at most 56, after the n bits of
// acc that are not yet past out[at], and returns the writer's at, acc
// and n after them.
func putBits(out []byte, at int, acc uint64, n uint, v uint64, w uint) (int, uint64, uint) {
	acc |= v << (n & 63)
	n += w
	binary.LittleEndian.PutUint64(out[at:], acc)
	return at + int(n>>3), acc >> (n & 56), n & 7
}

// BlockEncoder writes v2 blocks, one after another, out of scratch it
// owns and reuses: the block's bytes, one column's values, the stack
// IDs, the stack dictionary and its index and, when blocks are
// deflated, one flate.Writer. The zero value is ready; an encoder
// serves one goroutine at a time.
type BlockEncoder struct {
	raw    []byte        // header and columnar payload
	vals   []int64       // the run-coded column being written
	ids    []int64       // the stack IDs column: a dict entry for each sample that has a stack
	z      bytes.Buffer  // header and the payload deflated
	zw     *flate.Writer // made by the first deflated block
	dict   pathSet       // the block's distinct stacks, in order of first appearance
	toDict []int32       // captured stack → dict entry
}

// AppendChunk appends the sealed chunk to dst as one self-contained
// PSX2 block (stack IDs rebased to the chunk's own table), deflated if
// asked, and returns the extended slice; on an error dst comes back as
// it was. It allocates only when dst has no room for the block.
func (e *BlockEncoder) AppendChunk(dst []byte, s *SealedChunk, deflate bool) ([]byte, error) {
	block, err := e.encode(s.views(), s.c.stackBase, 0, deflate)
	if err != nil {
		return dst, err
	}
	return append(dst, block...), nil
}

// AppendBuffer appends a snapshot of b to dst as the one PSX2 block
// WriteTraceEnc writes for it, and returns the extended slice; on an
// error dst comes back as it was.
func (e *BlockEncoder) AppendBuffer(dst []byte, b *TraceBuffer, deflate bool) ([]byte, error) {
	block, err := e.encodeBuffer(b, deflate)
	if err != nil {
		return dst, err
	}
	return append(dst, block...), nil
}

// encodeBuffer encodes a snapshot of b into the encoder's scratch. The
// block is the encoder's own bytes, so the reader bracket ends here.
func (e *BlockEncoder) encodeBuffer(b *TraceBuffer, deflate bool) ([]byte, error) {
	st := b.enter()
	defer b.exit()
	views, base0 := snapshot(st)
	return e.encode(views, base0, b.dropped.Load(), deflate)
}

// encode builds one v2 trace block from chunk views, the compact twin
// of writeBlock, in scratch the next call overwrites. Sample stack IDs
// are rebased by base0 and remapped into the block's deduplicated
// dictionary; IDs outside the captured stack table degrade to NoStack,
// as in v1.
func (e *BlockEncoder) encode(views []chunkView, base0 int32, dropped uint64, deflate bool) ([]byte, error) {
	var nsamples, nstacks uint64
	for _, v := range views {
		nsamples += uint64(v.n)
		nstacks += uint64(v.nst)
	}

	// Deduplicate the block's stacks into a dictionary: AppendStacked
	// interns the same few callstacks over and over, and the dictionary
	// collapses them to one entry plus small indices.
	clear(e.dict.ids)
	e.dict.paths, e.toDict = e.dict.paths[:0], e.toDict[:0]
	for _, v := range views {
		for _, st := range v.stacks() {
			id, h, ok := e.dict.find(st)
			if !ok {
				id = e.dict.add(h, st)
			}
			e.toDict = append(e.toDict, id)
		}
	}

	raw := append(e.raw[:0], traceV2Magic[:]...)
	raw = binary.LittleEndian.AppendUint32(raw, traceV2Version)
	raw = binary.LittleEndian.AppendUint32(raw, 0) // flags: the shift is known after the times
	raw = binary.LittleEndian.AppendUint64(raw, nsamples)
	raw = binary.LittleEndian.AppendUint64(raw, uint64(len(e.dict.paths)))
	raw = binary.LittleEndian.AppendUint64(raw, dropped)
	raw = append(raw, make([]byte, 12)...) // payload length and CRC: known at the end
	// One pass per column, each gathered into one scratch slice first:
	// within a column the deltas stay small, so each code stays short,
	// and equal neighbours fall into one run. The time deltas' OR gives
	// the block's shift, and their bit lengths its Rice parameter.
	n := int(nsamples)
	if cap(e.vals) < n {
		e.vals = make([]int64, n)
	}
	vals := e.vals[:n]
	var hist [65]int
	var prev int64
	var or uint64
	j := 0
	for _, v := range views {
		for i := range v.c.samples[:v.n] {
			t := v.c.samples[i].Time
			vals[j], prev = t-prev, t
			or |= uint64(vals[j])
			hist[bits.Len64(uint64(vals[j]))]++
			j++
		}
	}
	shift := bits.TrailingZeros64(or) & 63 // 64, so 0, when no delta is non-zero
	binary.LittleEndian.PutUint32(raw[8:12], uint32(shift)<<flagV2ShiftAt)
	// A delta that is not zero is at least shift+1 bits long and is
	// stored shift bits shorter, so the stored deltas' histogram is
	// hist[shift:] once the zero deltas' count is moved to its front.
	hist[0], hist[shift] = 0, hist[0]
	raw = appendRice(raw, vals, riceK(hist[shift:], n), uint(shift))
	// The run-coded columns, a loop over plain values each. Events,
	// states and whether a sample has a stack are stored against their
	// predictions, which the block's first samples teach a zeroed model.
	var m predictor
	ids := e.ids[:0]
	for col := range 6 {
		k := 0
		for _, v := range views {
			ss := v.c.samples[:v.n]
			dst := vals[k : k+len(ss)]
			k += len(ss)
			switch col {
			case 0:
				for i := range ss {
					dst[i] = int64(ss[i].Thread)
				}
			case 1:
				for i := range ss {
					dst[i] = int64(m.event(ss[i].Event, false))
				}
			case 2:
				for i := range ss {
					dst[i] = int64(m.state(ss[i].Event, ss[i].State, false))
				}
			case 3:
				for i := range ss {
					dst[i] = int64(ss[i].Region)
				}
			case 4:
				for i := range ss {
					dst[i] = int64(ss[i].Site)
				}
			case 5:
				for i := range ss {
					has := int32(0)
					if rel := ss[i].StackID - base0; ss[i].StackID != NoStack && rel >= 0 && uint64(rel) < nstacks {
						ids, has = append(ids, int64(e.toDict[rel])), 1
					}
					out, _ := m.stack(ss[i].Event, has, false)
					dst[i] = int64(out)
				}
			}
		}
		raw = appendRuns(raw, vals, col == 0 || col == 3 || col == 4) // thread, region, site: deltas
	}
	raw = appendRuns(raw, ids, false)
	var last []uintptr
	for _, st := range e.dict.paths {
		shared := 0
		for shared < min(len(st), len(last)) && st[len(st)-1-shared] == last[len(last)-1-shared] {
			shared++
		}
		raw = binary.AppendUvarint(binary.AppendUvarint(raw, uint64(len(st))), uint64(shared))
		var pcprev uint64
		for _, pc := range st[:len(st)-shared] {
			raw = binary.AppendUvarint(raw, zigzag(int64(uint64(pc)-pcprev)))
			pcprev = uint64(pc)
		}
		last = st
	}
	e.raw, e.ids = raw, ids
	clear(e.dict.paths) // scratch must not keep the caller's stacks alive

	block := raw
	if deflate {
		e.z.Reset()
		e.z.Write(raw[:v2HeaderLen])
		if e.zw == nil {
			e.zw, _ = flate.NewWriter(&e.z, flate.BestSpeed) // the level is valid
		} else {
			e.zw.Reset(&e.z)
		}
		if _, err := e.zw.Write(raw[v2HeaderLen:]); err != nil {
			return nil, err
		}
		if err := e.zw.Close(); err != nil {
			return nil, err
		}
		block = e.z.Bytes()
		block[8] |= flagV2Flate // the header before the deflated payload is raw's, shift and all
	}
	stored := block[v2HeaderLen:]
	binary.LittleEndian.PutUint64(block[36:44], uint64(len(stored)))
	binary.LittleEndian.PutUint32(block[44:48], crc32.ChecksumIEEE(stored))
	return block, nil
}

// CountStreamSamples walks a stream of concatenated trace blocks (v1
// and v2 in any mix) and returns the total sample count they declare,
// validating each block's structure along the way
// — v2 blocks additionally have their payload checksum verified. It is
// the one place sample counts are derived from encoded bytes: with
// variable-width v2 blocks in the world, dividing a byte length by a
// record width silently miscounts, so every such call site routes
// through here (or through a full ReadTraceStream).
//
// Like the readers, it follows the salvage contract: a torn stream
// returns the count of the gap-free prefix alongside an error wrapping
// ErrBadTrace, and a last block whose header parses but whose body runs
// past the end of the stream is ErrCountMismatch. It walks a stream as
// ReadTraceStream's skim does, so it counts every sample ReadTraceStream
// reads, and exactly those of a stream ReadTraceStream reads whole. The
// converse does not hold: a block whose checksum matches but whose
// payload will not decode is counted here and refused there.
func CountStreamSamples(r io.Reader) (uint64, error) {
	// bufio.NewReader returns r itself when it already is a reader of
	// the default size or more, so a caller going block by block does
	// not strand its lookahead in a second buffer.
	n, _, err := skim(bufio.NewReader(r), false)
	return n, err
}

// skim is the walk behind CountStreamSamples and ReadTraceStream's first
// pass: it returns the samples of the blocks it accepted, how many
// blocks those are, and what stopped it (nil at a clean end). Bounded,
// it counts a v2 block's samples at most one per payload bit: what
// ReadTraceStream may size a slab by, which a header alone must not
// decide. A plain block's samples each take a bit of the time column at
// least; a deflated block may hold more than it counts, and a v1
// block's records are all present or the skim fails.
func skim(br *bufio.Reader, bounded bool) (total uint64, blocks int, err error) {
	for {
		if more, err := nextBlock(br); !more {
			return total, blocks, err
		}
		h, err := readHeader(br)
		if err == nil {
			err = skimBody(br, h)
		}
		if err != nil {
			return total, blocks, err
		}
		if bounded && h.v2 {
			h.ns = min(h.ns, 8*h.plen)
		}
		total += h.ns
		blocks++
	}
}

// BlockSamples returns the sample count carried by block, a byte slice
// holding whole encoded trace blocks (one staged chunk, a residue
// block, or any concatenation), validating the bytes fully — a torn or
// corrupt block is an error, never a partial count, and so is a slice
// holding no block at all. Ingest-side consumers use it to cross-check
// a frame's header-declared count against the bytes it actually
// carries, once per chunk and from every connection at once, so the
// readers it walks the bytes with are pooled rather than made per call.
func BlockSamples(block []byte) (uint64, error) {
	if len(block) == 0 {
		return 0, fmt.Errorf("%w: no block", ErrBadTrace)
	}
	s := skimReaders.Get()
	s.src.Reset(block)
	s.br.Reset(&s.src)
	n, err := CountStreamSamples(s.br)
	s.src.Reset(nil) // the list must not keep the caller's frame alive
	skimReaders.Put(s)
	return n, err
}

// skimReader is a buffered reader over a byte slice, both reusable.
type skimReader struct {
	src bytes.Reader
	br  *bufio.Reader
}

// skimReaders keeps up to 32 readers of about 4.2 KiB each (136 KiB),
// enough for psxd's connections checking chunks at once; a GC does not
// empty it, so the first chunks after one allocate nothing either.
var skimReaders = freelist.New(32, func() *skimReader {
	s := new(skimReader)
	s.br = bufio.NewReader(&s.src)
	return s
}, nil)

// skimBody consumes the body of the block whose header h readHeader
// has just consumed, without materializing it: a v2 block's payload,
// whose checksum it verifies, or a v1 block's records, stack table and
// dropped count. A plain payload must also open with a time parameter
// the decoder takes (a deflated one is not inflated here). It reads
// through Peek and Discard only, so that the payload is checksummed in
// the reader's own buffer and counting a block allocates nothing. A
// body the stream ends inside is ErrCountMismatch.
func skimBody(br *bufio.Reader, h blockHeader) error {
	if h.v2 {
		crc, k := uint32(0), -1
		for remaining := int(h.plen); remaining > 0; {
			buf, _ := br.Peek(min(remaining, br.Size()))
			if len(buf) == 0 {
				return ErrCountMismatch
			}
			if k < 0 {
				k = int(buf[0])
			}
			crc = crc32.Update(crc, crc32.IEEETable, buf)
			br.Discard(len(buf))
			remaining -= len(buf)
		}
		if crc != h.crc {
			return fmt.Errorf("%w: v2 payload checksum mismatch", ErrBadTrace)
		}
		if h.flags&flagV2Flate == 0 && (k < 0 || k > maxRiceK) {
			return errRiceK
		}
		return nil
	}
	if err := discard(br, int64(h.ns)*sampleRecordLen); err != nil {
		return err
	}
	f, err := br.Peek(8)
	if err != nil {
		return ErrCountMismatch
	}
	nst := binary.LittleEndian.Uint64(f)
	if nst > maxReasonable {
		return ErrBadTrace
	}
	br.Discard(8)
	for i := uint64(0); i < nst; i++ {
		f, err := br.Peek(4)
		if err != nil {
			return ErrCountMismatch
		}
		depth := binary.LittleEndian.Uint32(f)
		if depth > maxStackDepth {
			return ErrBadTrace
		}
		if err := discard(br, 4+int64(depth)*8); err != nil {
			return err
		}
	}
	return discard(br, 8) // dropped
}

func discard(br *bufio.Reader, n int64) error {
	if m, _ := br.Discard(int(n)); int64(m) != n {
		return ErrCountMismatch
	}
	return nil
}
