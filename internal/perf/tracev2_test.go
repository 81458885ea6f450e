package perf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// resolvedSample is a sample with its stack ID replaced by the stack's
// contents: v2's dictionary deduplication legitimately renumbers stack
// IDs, so equivalence across encodings is judged on what the IDs
// resolve to, never on the IDs themselves.
type resolvedSample struct {
	s     Sample
	stack []uintptr
}

// traceView is what the checks read of a recording buffer and of a
// decoded Trace alike.
type traceView interface {
	Len() int
	Samples() []Sample
	Stack(id int32) []uintptr
	NumStacks() int
}

func resolve(b traceView) []resolvedSample {
	out := make([]resolvedSample, 0, b.Len())
	for _, s := range b.Samples() {
		rs := resolvedSample{s: s, stack: b.Stack(s.StackID)}
		rs.s.StackID = 0
		out = append(out, rs)
	}
	return out
}

// recorded records tr into a recording buffer, for the APIs that take
// what a thread records: each sample in order, each of its paths stored
// once per chunk, and tr's drop count.
func recorded(tr *Trace) *TraceBuffer {
	b := NewTraceBuffer(tr.Len(), 0)
	for _, s := range tr.Samples() {
		if s.StackID == NoStack {
			b.Append(s)
		} else {
			b.appendPath(s, tr.stacks[s.StackID])
		}
	}
	b.dropped.Store(tr.Dropped())
	return b
}

func sameResolved(a, b []resolvedSample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].s != b[i].s {
			return false
		}
		if len(a[i].stack) != len(b[i].stack) {
			return false
		}
		for j := range a[i].stack {
			if a[i].stack[j] != b[i].stack[j] {
				return false
			}
		}
	}
	return true
}

func roundTripV2(t *testing.T, b *TraceBuffer, enc Encoding) *Trace {
	t.Helper()
	var out bytes.Buffer
	if err := WriteTraceEnc(&out, b, enc); err != nil {
		t.Fatalf("WriteTraceEnc(%+v): %v", enc, err)
	}
	got, err := ReadTraceStream(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("ReadTraceStream(%+v): %v", enc, err)
	}
	return got
}

func TestV2RoundTripBasic(t *testing.T) {
	b := NewTraceBuffer(0, 0)
	b.AppendStacked(Sample{Time: 100, Thread: 0, Event: 2, State: 3, Region: 7, Site: 0x400010}, []uintptr{0x400010, 0x400120, 0x7f000000})
	b.Append(Sample{Time: 90, Thread: 1, Event: -1, State: -1, Region: 7, Site: 0x400010, StackID: NoStack})
	b.AppendStacked(Sample{Time: 5000, Thread: 1, Event: 0, State: 1, Region: 8, Site: 0x400300},
		[]uintptr{0x400010, 0x400120, 0x7f000000}) // duplicate: dictionary collapses it
	b.dropped.Store(17)

	for _, enc := range []Encoding{{V2: true}, {V2: true, Flate: true}} {
		got := roundTripV2(t, b, enc)
		if !sameResolved(resolve(b), resolve(got)) {
			t.Fatalf("%+v: round trip changed resolved samples", enc)
		}
		if got.Dropped() != 17 {
			t.Fatalf("%+v: dropped = %d, want 17", enc, got.Dropped())
		}
		if got.NumStacks() != 1 {
			t.Fatalf("%+v: dictionary kept %d stacks, want 1 (dedup)", enc, got.NumStacks())
		}
	}
}

func TestV2RoundTripEmpty(t *testing.T) {
	for _, enc := range []Encoding{{V2: true}, {V2: true, Flate: true}} {
		got := roundTripV2(t, NewTraceBuffer(0, 0), enc)
		if got.Len() != 0 || got.NumStacks() != 0 || got.Dropped() != 0 {
			t.Fatalf("%+v: empty buffer round trip not empty", enc)
		}
	}
}

// TestV2VarintEdges pins the encoding at varint width boundaries and
// extreme deltas: one-to-two-byte edges (deltas ±63/±64 after zigzag),
// max-magnitude int64 times (delta wraparound must be exact two's
// complement), and negative columns (Event/State -1).
func TestV2VarintEdges(t *testing.T) {
	times := []int64{
		0, 63, 127, 128, 64, 0, // ±1/2-byte zigzag edges
		math.MaxInt64, math.MinInt64, -1, math.MaxInt64 - 1, // extreme deltas
		42,
	}
	b := NewTraceBuffer(0, 0)
	for i, tm := range times {
		b.Append(Sample{
			Time:   tm,
			Thread: int32(i % 3),
			Event:  int32(-1 + i%5),
			State:  -1,
			Region: uint64(i) * 0x100000001,
			Site:   math.MaxUint64 - uint64(i*7), // descending: negative deltas in a uint64 column
		})
	}
	for _, enc := range []Encoding{{V2: true}, {V2: true, Flate: true}} {
		got := roundTripV2(t, b, enc)
		if !sameResolved(resolve(b), resolve(got)) {
			t.Fatalf("%+v: varint edge values corrupted by round trip", enc)
		}
	}
}

// TestV2QuickRoundTrip drives the encoder/decoder with randomized
// sample columns and stacks under testing/quick.
func TestV2QuickRoundTrip(t *testing.T) {
	check := func(times []int64, threads []int32, regions []uint64, pcs []uint64, flate bool) bool {
		b := NewTraceBuffer(0, 0)
		for i, tm := range times {
			s := Sample{Time: tm, Event: -1, State: -1, StackID: NoStack}
			if len(threads) > 0 {
				s.Thread = threads[i%len(threads)]
			}
			if len(regions) > 0 {
				s.Region = regions[i%len(regions)]
				s.Site = regions[(i+1)%len(regions)]
			}
			if len(pcs) > 0 && i%3 == 0 {
				st := make([]uintptr, 0, 4)
				for j := 0; j < 1+i%4 && j < len(pcs); j++ {
					st = append(st, uintptr(pcs[(i+j)%len(pcs)]))
				}
				b.AppendStacked(s, st)
			} else {
				b.Append(s)
			}
		}
		var out bytes.Buffer
		if err := WriteTraceEnc(&out, b, Encoding{V2: true, Flate: flate}); err != nil {
			return false
		}
		got, err := ReadTraceStream(bytes.NewReader(out.Bytes()))
		if err != nil {
			return false
		}
		return sameResolved(resolve(b), resolve(got))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestV2CrossRead writes the same buffer in v1 and both v2 modes and
// requires all three to read back equivalent: the compatibility gate
// behind `make check`.
func TestV2CrossRead(t *testing.T) {
	b := NewTraceBuffer(0, 0)
	for i := 0; i < 3*ChunkSamples; i++ { // span several chunks
		s := Sample{Time: int64(i * 14), Thread: int32(i % 4), Event: int32(i % 8), State: 1, Region: uint64(1 + i/ChunkSamples), Site: 0x401000}
		if i%16 == 0 {
			b.AppendStacked(s, []uintptr{0x401000, uintptr(0x500000 + i%5)})
		} else {
			b.Append(s)
		}
	}
	want := resolve(b)
	for _, enc := range []Encoding{{}, {V2: true}, {V2: true, Flate: true}} {
		var out bytes.Buffer
		if err := WriteTraceEnc(&out, b, enc); err != nil {
			t.Fatalf("%+v: %v", enc, err)
		}
		got, err := ReadTraceStream(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("%+v: %v", enc, err)
		}
		if !sameResolved(want, resolve(got)) {
			t.Fatalf("%+v: cross-read mismatch against v1 source", enc)
		}
	}
}

// buildMixedStream concatenates ten blocks with distinct sample
// counts, returning the stream, the per-block end offsets, and the total
// sample count: v1; PSX2 version 5 as the last encoder of version 5
// wrote it, the deflated second block and then the plain first block of
// testdata/psx2-version5.psxt (their five and seven samples are the
// counts the second and third blocks have); v1 again; then versions 6,
// 5 and 6, deflated and plain, plain and deflated, and plain and
// deflated. The version-5 blocks past the fixture's are written blocks
// of shift 0, which version 5 wrote the same but for the version word
// (asVersion5).
func buildMixedStream(t *testing.T) ([]byte, []int, uint64) {
	t.Helper()
	fixtureBlock := func(name string, i int) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		for ; i > 0; i-- {
			b = b[v2HeaderLen+binary.LittleEndian.Uint64(b[36:44]):]
		}
		return b[:v2HeaderLen+binary.LittleEndian.Uint64(b[36:44])]
	}
	var out bytes.Buffer
	var bounds []int
	var total uint64
	plain, deflated := Encoding{V2: true}, Encoding{V2: true, Flate: true}
	encs := []Encoding{{}, {} /* not used: the fixture's */, {} /* not used: the fixture's */, {}, deflated, plain, plain, deflated, plain, deflated}
	for blk, enc := range encs {
		n := 3 + blk*2
		b := NewTraceBuffer(n, 0)
		for i := 0; i < n-1; i++ {
			b.Append(Sample{Time: int64(blk*1000 + i), Thread: int32(blk), Event: int32(i % 4), State: -1, StackID: NoStack})
		}
		b.AppendStacked(Sample{Time: int64(blk*1000 + n - 1), Thread: int32(blk), Event: -1, State: -1},
			[]uintptr{uintptr(0x1000 + blk), 0x2000})
		var one bytes.Buffer
		if err := WriteTraceEnc(&one, b, enc); err != nil {
			t.Fatal(err)
		}
		switch blk {
		case 1:
			out.Write(fixtureBlock("psx2-version5.psxt", 1))
		case 2:
			out.Write(fixtureBlock("psx2-version5.psxt", 0))
		case 6, 7:
			out.Write(asVersion5(t, one.Bytes()))
		default:
			out.Write(one.Bytes())
		}
		bounds = append(bounds, out.Len())
		total += uint64(n)
	}
	return out.Bytes(), bounds, total
}

// TestMixedStreamReadAndCount pins satellite 2: a stream mixing v1 and
// v2 blocks reads back merged, and CountStreamSamples — the one
// sanctioned way to derive sample counts from encoded bytes — agrees
// with the reader without materializing anything. A byte-length /
// record-width division would get every v2 block wrong.
func TestMixedStreamReadAndCount(t *testing.T) {
	stream, _, total := buildMixedStream(t)
	buf, err := ReadTraceStream(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(buf.Samples())) != total {
		t.Fatalf("merged %d samples, want %d", len(buf.Samples()), total)
	}
	n, err := CountStreamSamples(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("CountStreamSamples = %d, want %d", n, total)
	}
	bn, err := BlockSamples(stream)
	if err != nil || bn != total {
		t.Fatalf("BlockSamples = %d, %v, want %d", bn, err, total)
	}
	// The fixed-width shortcut is exactly what must NOT be used: show
	// it disagrees on this stream so the helper's reason for existing
	// stays pinned.
	if uint64(len(stream))/sampleRecordLen == total {
		t.Fatalf("test stream degenerate: byte-length division accidentally agrees")
	}
}

// TestBlockSamplesNeedsABlock: an empty file is an empty stream, but a
// chunk is a block — BlockSamples refuses a slice that holds none.
func TestBlockSamplesNeedsABlock(t *testing.T) {
	if n, err := CountStreamSamples(bytes.NewReader(nil)); err != nil || n != 0 {
		t.Fatalf("CountStreamSamples(empty) = %d, %v; want 0, nil", n, err)
	}
	for _, block := range [][]byte{nil, {}} {
		if _, err := BlockSamples(block); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("BlockSamples(%v) err = %v, want ErrBadTrace", block, err)
		}
	}
}

// TestV2TornTailSalvage cuts a mixed stream inside its final (v2)
// block at every offset: the reader must return the gap-free prefix of
// whole blocks with an error wrapping ErrBadTrace, and the skim
// counter must agree on that prefix.
func TestV2TornTailSalvage(t *testing.T) {
	stream, bounds, total := buildMixedStream(t)
	last := len(bounds) - 1
	prefixSamples := total - uint64(3+last*2)
	for cut := bounds[last-1] + 1; cut < bounds[last]; cut++ {
		buf, err := ReadTraceStream(bytes.NewReader(stream[:cut]))
		if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("cut %d: err = %v, want ErrBadTrace", cut, err)
		}
		if buf == nil || uint64(len(buf.Samples())) != prefixSamples {
			t.Fatalf("cut %d: prefix samples = %d, want %d", cut, len(buf.Samples()), prefixSamples)
		}
		n, err := CountStreamSamples(bytes.NewReader(stream[:cut]))
		if !errors.Is(err, ErrBadTrace) || n != prefixSamples {
			t.Fatalf("cut %d: CountStreamSamples = %d, %v; want %d with ErrBadTrace", cut, n, err, prefixSamples)
		}
	}
}

// TestV2CorruptPayloadDetected flips one payload byte in a v2 block:
// the stored-bytes CRC must reject it.
func TestV2CorruptPayloadDetected(t *testing.T) {
	b := NewTraceBuffer(0, 0)
	for i := 0; i < 50; i++ {
		b.Append(Sample{Time: int64(i), Event: int32(i % 3), State: -1, StackID: NoStack})
	}
	for _, enc := range []Encoding{{V2: true}, {V2: true, Flate: true}} {
		var out bytes.Buffer
		if err := WriteTraceEnc(&out, b, enc); err != nil {
			t.Fatal(err)
		}
		blk := out.Bytes()
		blk[v2HeaderLen+len(blk[v2HeaderLen:])/2] ^= 0xFF
		if _, err := ReadTraceStream(bytes.NewReader(blk)); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("%+v: corrupt payload accepted (err=%v)", enc, err)
		}
	}
}

// TestV2DictionaryIndexOutOfRange handcrafts a v2 block whose single
// sample references dictionary entry 5 of a 1-entry dictionary; the
// same block naming entry 0 reads.
func TestV2DictionaryIndexOutOfRange(t *testing.T) {
	block := func(index int64) []byte {
		payload := appendRice(nil, []int64{10}, 0, 0) // time delta
		for c := 0; c < 5; c++ {
			payload = appendRuns(payload, []int64{0}, false) // thread, event, state, region, site
		}
		payload = appendRuns(payload, []int64{1}, false)        // a stack, where none is predicted
		payload = appendRuns(payload, []int64{index}, false)    // its dictionary index
		payload = binary.AppendUvarint(payload, 1)              // the one dictionary stack: depth 1,
		payload = binary.AppendUvarint(payload, 0)              // no frame shared,
		payload = binary.AppendUvarint(payload, zigzag(0x1000)) // PC 0x1000
		return v2BlockFromPayload(1, 1, 0, payload)
	}
	if got, err := ReadTraceStream(bytes.NewReader(block(0))); err != nil || got.Len() != 1 ||
		!slices.Equal(got.Stack(got.Samples()[0].StackID), []uintptr{0x1000}) {
		t.Fatalf("in-range stack index: %v", err)
	}
	if _, err := ReadTraceStream(bytes.NewReader(block(5))); !errors.Is(err, errStackIndex) {
		t.Fatalf("out-of-dictionary stack index accepted (err=%v)", err)
	}
}

// TestV2SkimRefusesWhatReadersRefuse: the skim behind psxd's per-chunk
// count (and so behind what psxd acks and stores) refuses a PSX2 block
// of any version the reader does not decode, though its checksum, which
// does not cover the version, is intact: one past the written version,
// and every version below the one before it. Both refuse a block whose
// flags set a bit other than the flate bit and the shift's, in either
// version they read, and both read a block whose shift is set.
func TestV2SkimRefusesWhatReadersRefuse(t *testing.T) {
	for name, block := range v6FlagBlocks(t) {
		_, read := ReadTraceStream(bytes.NewReader(block))
		n, count := BlockSamples(block)
		refused := strings.HasPrefix(name, "refused")
		if refused && (read != errV2Flags || count != errV2Flags) || !refused && (read != nil || count != nil || n == 0) {
			t.Errorf("%s: ReadTraceStream %v, BlockSamples %d, %v", name, read, n, count)
		}
	}

	b := NewTraceBuffer(0, 0)
	for i := 0; i < 3; i++ {
		b.Append(Sample{Time: int64(i), Event: 1, State: -1, StackID: NoStack})
	}
	var out bytes.Buffer
	if err := WriteTraceEnc(&out, b, Encoding{V2: true}); err != nil {
		t.Fatal(err)
	}
	blk := out.Bytes()
	if n, err := BlockSamples(blk); err != nil || n != 3 {
		t.Fatalf("written block: BlockSamples = %d, %v; want 3", n, err)
	}
	refused := []uint32{0, traceV2Version + 1, 9, math.MaxUint32}
	for ver := uint32(1); ver < traceV2Version-1; ver++ {
		refused = append(refused, ver)
	}
	for _, ver := range refused {
		binary.LittleEndian.PutUint32(blk[4:8], ver)
		want := fmt.Sprintf("unsupported v2 trace version %d", ver)
		if _, err := ReadTraceStream(bytes.NewReader(blk)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d: ReadTraceStream err = %v, want %q", ver, err, want)
		}
		if n, err := BlockSamples(blk); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d: BlockSamples = %d, %v; want %q", ver, n, err, want)
		}
	}
}

// TestV2RunWordIs66Bits pins the run word at its widest: a region
// delta of 2^63 has a zigzag image of 2^64 − 1, so the word needs all 66
// bits of the value and its kind — ten bytes — and a bit more is
// refused, not wrapped.
func TestV2RunWordIs66Bits(t *testing.T) {
	word := appendRunWord(nil, math.MaxUint64, runMore)
	if len(word) != binary.MaxVarintLen64 || word[0] != 0xfc|runMore || word[9] != 0x07 {
		t.Fatalf("word = % x, want ten bytes ending in 07", word)
	}
	p := varints{buf: append(word, 0)}
	if v, n, reps, err := p.run(2, 0); err != nil || v != math.MinInt64 || n != 2 || reps != 1 || p.off != len(p.buf) {
		t.Fatalf("run = %d×%d, %v at %d; want %d×2 over all %d bytes", v, n, err, p.off, int64(math.MinInt64), len(p.buf))
	}
	word[9] = 0x08 // a bit more
	p = varints{buf: append(word, 0)}
	if _, _, _, err := p.run(2, 0); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("a word past 66 bits decoded (err=%v)", err)
	}
}

// TestV2QuickRoundTripExtremes round-trips random samples whose every
// column but time draws from its type's extremes, in random runs: a
// region or site delta of 2^62 or more is the case the run word's bits
// past 64 are for, and int32 extremes meet the thread deltas and the value
// columns.
func TestV2QuickRoundTripExtremes(t *testing.T) {
	u64 := []uint64{0, 1, 1 << 62, 1<<62 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	i32 := []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32}
	check := func(picks []uint32, flate bool) bool {
		b := NewTraceBuffer(0, 0)
		var s Sample
		for i, p := range picks {
			// The low bits say which columns change at this sample, so
			// most columns repeat the sample before and runs form.
			if p&1 != 0 {
				s.Thread = i32[(p>>8)%uint32(len(i32))]
			}
			if p&2 != 0 {
				s.Event = i32[(p>>12)%uint32(len(i32))]
				s.State = i32[(p>>16)%uint32(len(i32))]
			}
			if p&4 != 0 {
				s.Region = u64[(p>>20)%uint32(len(u64))]
			}
			if p&8 != 0 {
				s.Site = u64[(p>>24)%uint32(len(u64))]
			}
			s.Time = int64(i) * int64(p>>4)
			if p&16 != 0 {
				b.AppendStacked(s, []uintptr{uintptr(p >> 28), 0x1000})
			} else {
				s.StackID = NoStack
				b.Append(s)
			}
		}
		var out bytes.Buffer
		if err := WriteTraceEnc(&out, b, Encoding{V2: true, Flate: flate}); err != nil {
			return false
		}
		got, err := ReadTraceStream(bytes.NewReader(out.Bytes()))
		return err == nil && sameResolved(resolve(b), resolve(got))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// arbitraryBlocks are blocks that the format's shortcuts, the event and
// state predictions and the time column's small deltas, do not fit:
// times that go back, events and states that are negative or outside
// 0..255 and so share a table slot with another, and blocks that
// interleave threads. Each follows a protocol-like cycle of events,
// broken at random, so the predictions both hit and miss.
func arbitraryBlocks() []*TraceBuffer {
	words := []int32{-1, 0, 1, 4, 5, 255, 256, 511, -256, -257, 0x10005, math.MinInt32, math.MaxInt32}
	times := []int64{-1, -1000, math.MinInt64, math.MaxInt64, 1 << 40}
	rng := rand.New(rand.NewSource(1))
	var out []*TraceBuffer
	for blk := 0; blk < 300; blk++ {
		cycle := make([]int32, 1+rng.Intn(6))
		for i := range cycle {
			cycle[i] = words[rng.Intn(len(words))]
		}
		b := NewTraceBuffer(0, 0)
		var now int64
		for i, n := 0, 1+rng.Intn(700); i < n; i++ {
			if rng.Intn(8) == 0 {
				now += times[rng.Intn(len(times))]
			} else {
				now += rng.Int63n(5000)
			}
			s := Sample{Time: now, Thread: int32(rng.Intn(3)), Event: cycle[i%len(cycle)],
				State: cycle[(i+1)%len(cycle)], Region: uint64(i / 16), Site: 0x401000}
			if rng.Intn(10) == 0 {
				s.Event = words[rng.Intn(len(words))]
			}
			if rng.Intn(10) == 0 {
				s.State = words[rng.Intn(len(words))]
			}
			if rng.Intn(4) == 0 {
				b.AppendStacked(s, []uintptr{0x401000, uintptr(0x500000 + rng.Intn(8))})
			} else {
				s.StackID = NoStack
				b.Append(s)
			}
		}
		out = append(out, b)
	}
	return out
}

// checkRoundTrips writes each block plain and deflated, passes the bytes
// through rewrite, which must leave a block of version ver, and reads
// them back sample for sample; the skim must count them.
func checkRoundTrips(t *testing.T, blocks []*TraceBuffer, ver uint32, rewrite func(*testing.T, []byte) []byte) {
	t.Helper()
	for blk, b := range blocks {
		for _, enc := range []Encoding{{V2: true}, {V2: true, Flate: true}} {
			var out bytes.Buffer
			if err := WriteTraceEnc(&out, b, enc); err != nil {
				t.Fatal(err)
			}
			block := rewrite(t, out.Bytes())
			if v := binary.LittleEndian.Uint32(block[4:8]); v != ver {
				t.Fatalf("block %d %+v: version %d, want %d", blk, enc, v, ver)
			}
			got, err := ReadTraceStream(bytes.NewReader(block))
			if err != nil || !sameResolved(resolve(b), resolve(got)) {
				t.Fatalf("block %d %+v: round trip changed %d samples (err=%v)", blk, enc, b.Len(), err)
			}
			if n, err := BlockSamples(block); err != nil || n != uint64(b.Len()) {
				t.Fatalf("block %d %+v: BlockSamples = %d, %v; want %d", blk, enc, n, err, b.Len())
			}
		}
	}
}

// timeEdgeBlocks returns arbitraryBlocks and the time column's edges
// (TestV6RoundTripArbitrary), and among those the block whose deltas
// are all zero and the one whose every delta escapes.
func timeEdgeBlocks() (blocks []*TraceBuffer, zeros, escaping *TraceBuffer) {
	var esc, negative, mixed, edge []int64
	var now int64
	for i := range 100 {
		esc = append(esc, int64(i+1)<<45*int64(1-2*(i%2))+1) // every delta 2^44 or more: past the escape at any k, and shift 0
		negative = append(negative, []int64{0, math.MinInt64, -1, math.MaxInt64, 5, 4}[i%6])
		mixed = append(mixed, int64(i%3)*1e9+int64(i)*250)
		// Deltas of 11 bits, so k is 10, 11 or 12, and at each of those
		// the largest quotient that does not escape and the least that
		// does.
		d := int64(1500)
		if k := 10 + i%3; i%10 == 9 {
			d = []int64{15<<k + 1<<k - 1, 16 << k}[i/10%2]
		}
		now += d
		edge = append(edge, now)
	}
	zeros, escaping = timeBlock(make([]int64, 256)...), timeBlock(esc...)
	blocks = append(arbitraryBlocks(), zeros, escaping, timeBlock(negative...), timeBlock(mixed...), timeBlock(edge...),
		timeBlock(0), timeBlock(math.MinInt64), timeBlock(math.MaxInt64), timeBlock(-1))
	return blocks, zeros, escaping
}

// timeBlock is a block of three threads' samples, in turn, whose times
// are times.
func timeBlock(times ...int64) *TraceBuffer {
	b := NewTraceBuffer(0, 0)
	for i, tm := range times {
		b.Append(Sample{Time: tm, Thread: int32(i % 3), Event: int32(i % 4), State: -1, StackID: NoStack})
	}
	return b
}

// quantized returns a copy of b whose times are rounded down to a
// multiple of ClockQuantum, as Cycles rounds them.
func quantized(b *TraceBuffer) *TraceBuffer {
	q := NewTraceBuffer(0, 0)
	for _, s := range b.Samples() {
		s.Time &^= int64(ClockQuantum - 1)
		if s.StackID == NoStack {
			q.Append(s)
		} else {
			q.AppendStacked(s, b.Stack(s.StackID))
		}
	}
	return q
}

// blockShift returns the time column's shift from a PSX2 block's flags.
func blockShift(block []byte) int {
	return int(binary.LittleEndian.Uint32(block[8:12])&flagV2Shift) >> flagV2ShiftAt
}

// TestV6RoundTripArbitrary: version 6 stores each time delta shifted
// down by the block's shift, the trailing zeros of the OR of its deltas.
// On top of the time column's edges it must round-trip arbitraryBlocks
// at the nanosecond (shift 0) and rounded to ClockQuantum (shift 3), an
// empty block and all-equal times (no delta that is not zero: shift 0),
// a negative delta, which escapes, in a shifted block, and one sample
// whose time is a large power of two (its shift is the power), plain and
// deflated, each declaring the shift its deltas have. The zero block's
// time column is one bit a sample, the escaping block's each delta's
// escape and length, and a block of steps of one quantum two bits a
// sample, where shift 0 would spend five.
func TestV6RoundTripArbitrary(t *testing.T) {
	blocks, zeros, escaping := timeEdgeBlocks()
	arbitrary := arbitraryBlocks()
	for _, b := range arbitrary {
		blocks = append(blocks, quantized(b))
	}
	steps := make([]int64, 256)
	for i := range steps {
		steps[i] = int64(i+1) * int64(ClockQuantum)
	}
	named := []struct {
		b     *TraceBuffer
		shift int
	}{
		{arbitrary[0], 0},
		{quantized(arbitrary[0]), 3},
		{timeBlock(), 0},
		{zeros, 0},
		{timeBlock(42, 42, 42), 1}, // the first delta is the first time
		{escaping, 0},
		{timeBlock(800, 8, 16), 3}, // −792 escapes
		{timeBlock(1 << 62), 62},
		{timeBlock(math.MinInt64), 63},
		{timeBlock(steps...), 3},
	}
	for _, c := range named {
		blocks = append(blocks, c.b)
	}
	checkRoundTrips(t, blocks, traceV2Version, func(_ *testing.T, b []byte) []byte { return b })

	escBits, prev := 0, int64(0)
	for _, s := range escaping.Samples() {
		escBits += riceEscape + 6 + bits.Len64(uint64(s.Time-prev))
		prev = s.Time
	}
	columnBytes := map[*TraceBuffer]int{zeros: 1 + zeros.Len()/8, escaping: 1 + (escBits+7)/8, named[len(named)-1].b: 1 + 2*len(steps)/8}
	for i, c := range named {
		for _, enc := range []Encoding{{V2: true}, {V2: true, Flate: true}} {
			var out bytes.Buffer
			if err := WriteTraceEnc(&out, c.b, enc); err != nil {
				t.Fatal(err)
			}
			if got := blockShift(out.Bytes()); got != c.shift {
				t.Errorf("block %d %+v: shift %d, want %d", i, enc, got, c.shift)
			}
			want, ok := columnBytes[c.b]
			if !ok || enc.Flate {
				continue
			}
			raw := out.Bytes()[v2HeaderLen:]
			if end := timeColumnEnd(raw, c.b.Len()); end != want || c.b == zeros && raw[0] != 0 {
				t.Errorf("block %d: time column of %d samples is %d bytes, k = %d; want %d bytes", i, c.b.Len(), end, raw[0], want)
			}
		}
	}
}

// TestV5RoundTripArbitrary: from version 5 a block stores whether a
// sample has a stack against whether the last sample of its event had
// one, repeats runs and shares the dictionary's outer frames, so on
// top of the time column's edges it must round-trip stacks on any
// event, joins without one, periodic and aperiodic runs, a column
// that is one long repeat, and dictionaries whose paths share every,
// some or none of their frames.
func TestV5RoundTripArbitrary(t *testing.T) {
	blocks, _, _ := timeEdgeBlocks()
	rng := rand.New(rand.NewSource(5))
	paths := [][]uintptr{{1, 2, 3}, {4, 2, 3}, {5, 3}, {3}, {6, 7, 8, 9}, {1, 2, 3, 9}, {0x401000, 0x7f0000}}
	for blk := 0; blk < 200; blk++ {
		b := NewTraceBuffer(0, 0)
		period, stackEvery := 1+rng.Intn(6), 1+rng.Intn(5)
		for i, n := 0, 1+rng.Intn(600); i < n; i++ {
			s := Sample{Time: int64(10 * i), Thread: int32(blk % 3), Event: int32(i % 4), State: 1,
				Region: uint64(1 + i/period), Site: uint64(0x401000 + i/period%2)}
			if rng.Intn(4) == 0 { // an aperiodic run
				s.Region += uint64(rng.Intn(3))
			}
			if i%stackEvery == 0 && rng.Intn(8) != 0 { // on any event, and missing at random
				b.AppendStacked(s, paths[rng.Intn(len(paths))])
			} else {
				s.StackID = NoStack
				b.Append(s)
			}
		}
		blocks = append(blocks, b)
	}
	long := NewTraceBuffer(0, 0) // its region column is one run and one long repeat
	for i := range 4096 {
		long.Append(Sample{Time: int64(i), Event: int32(i % 2), Region: uint64(1 + i/4), StackID: NoStack})
	}
	blocks = append(blocks, long, stackedBlock())
	checkRoundTrips(t, blocks, traceV2Version, func(_ *testing.T, b []byte) []byte { return b })

	var out bytes.Buffer
	if err := WriteTraceEnc(&out, long, Encoding{V2: true}); err != nil {
		t.Fatal(err)
	}
	raw := out.Bytes()[v2HeaderLen:]
	at := v5ColumnsAt(t, raw, long.Len(), 0)
	if region := raw[at[3]:at[4]]; !bytes.Equal(region, []byte{byte(zigzag(1))<<2 | runMore, 2, runRepeat, 0xfe, 0x07}) {
		t.Fatalf("region column of 1024 runs of 4 = % x, want a run and a repeat of 1022", region)
	}
}

// v5ColumnsAt returns where each column of the raw payload of a written
// block of n samples, stacked of which have a stack, starts: the seven
// run-coded ones (0 the thread column, 6 the stack IDs), then the
// dictionary and the payload's end.
func v5ColumnsAt(tb testing.TB, raw []byte, n, stacked int) []int {
	tb.Helper()
	p := varints{buf: raw, off: timeColumnEnd(raw, n)}
	at := []int{p.off}
	for c := range 7 {
		if c == 6 {
			n = stacked
		}
		if err := p.runs(make([]int64, n), c == 0 || c == 3 || c == 4); err != nil {
			tb.Fatalf("column %d: %v", c, err)
		}
		at = append(at, p.off)
	}
	return append(at, len(raw))
}

// timeColumnEnd returns where the time column of n samples ends in a
// payload.
func timeColumnEnd(raw []byte, n int) int {
	r := bitReader{buf: raw[1:]}
	for range n {
		r.rice(uint(raw[0]))
	}
	return 1 + int((r.at+7)/8)
}

// riceEdgeBlocks returns blocks of the written version at the edges
// of the time column: a valid block of 256 equal times (k = 0, one
// bit a sample), the same block declaring k out of range, and a
// one-sample block whose unary part the payload's end cuts off.
func riceEdgeBlocks(tb testing.TB) (valid, badK, cut []byte) {
	b := NewTraceBuffer(0, 0)
	for range 256 {
		b.Append(Sample{Time: 0, Thread: 1, Event: 2, State: -1, StackID: NoStack})
	}
	var out bytes.Buffer
	if err := WriteTraceEnc(&out, b, Encoding{V2: true}); err != nil {
		tb.Fatal(err)
	}
	valid = out.Bytes()
	badK = bytes.Clone(valid)
	badK[v2HeaderLen] = maxRiceK + 1
	binary.LittleEndian.PutUint32(badK[44:48], crc32.ChecksumIEEE(badK[v2HeaderLen:]))
	cut = v2BlockFromPayload(1, 0, 0, []byte{0, 0}) // k = 0, then eight zero bits of quotient
	return valid, badK, cut
}

// TestV4TimeColumnEdges: a k = 0 block reads, a k past maxRiceK is
// refused, and so is a unary part the payload's end cuts off, as the
// truncation it is.
func TestV4TimeColumnEdges(t *testing.T) {
	valid, badK, cut := riceEdgeBlocks(t)
	if valid[v2HeaderLen] != 0 {
		t.Fatalf("256 equal times: k = %d, want 0", valid[v2HeaderLen])
	}
	if got, err := ReadTraceStream(bytes.NewReader(valid)); err != nil || got.Len() != 256 {
		t.Fatalf("k = 0 block: %v", err)
	}
	for _, c := range []struct {
		name  string
		block []byte
		want  error
	}{{"k out of range", badK, errRiceK}, {"unary part cut off", cut, errTruncatedV2}} {
		if _, err := ReadTraceStream(bytes.NewReader(c.block)); err != c.want || !errors.Is(err, ErrBadTrace) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestSkimRefusesBadRiceK: the skim refuses a plain block whose time
// parameter is out of range or missing, as the decoder does, so
// psxd's count check acks no block every reader stops at.
func TestSkimRefusesBadRiceK(t *testing.T) {
	_, badK, _ := riceEdgeBlocks(t)
	empty := v2BlockFromPayload(0, 0, 0, nil)
	for name, block := range map[string][]byte{"k out of range": badK, "no payload": empty} {
		_, read := ReadTraceStream(bytes.NewReader(block))
		_, count := CountStreamSamples(bytes.NewReader(block))
		if _, err := BlockSamples(block); err != errRiceK || count != errRiceK || read != errRiceK {
			t.Errorf("%s: BlockSamples %v, CountStreamSamples %v, ReadTraceStream %v; want %v", name, err, count, read, errRiceK)
		}
	}
}

// asVersion5 rewrites a written block of shift 0 as version 5 wrote
// it, which differs only in its version word.
func asVersion5(t *testing.T, block []byte) []byte {
	t.Helper()
	if blockShift(block) != 0 {
		t.Fatalf("a block of shift %d has no version-5 twin", blockShift(block))
	}
	out := bytes.Clone(block)
	binary.LittleEndian.PutUint32(out[4:8], 5)
	return out
}

// stackedBlock is 32 samples of one thread in eight regions of four
// events, the last of which, event 3, has a stack: one of three paths in
// turn, {4, 3}, {1, 2, 3} and {5, 3}, which share their outer frame. Its
// plain block's region column is a run and a repeat, its stack presence
// the runs 0×3, 1 and 0×28 (only the first stack is a surprise), its
// stack IDs eight singletons (0, 1, 2, 0, …), and its dictionary the
// eleven bytes 02 00 08 01 | 03 01 02 02 | 02 01 0a.
func stackedBlock() *TraceBuffer {
	b := NewTraceBuffer(0, 0)
	paths := [][]uintptr{{4, 3}, {1, 2, 3}, {5, 3}}
	for i := range 32 {
		s := Sample{Time: int64(10 * i), Thread: 2, Event: int32(i % 4), State: 1, Region: uint64(1 + i/4), Site: 0x401000}
		if i%4 == 3 {
			b.AppendStacked(s, paths[i/4%3])
		} else {
			s.StackID = NoStack
			b.Append(s)
		}
	}
	return b
}

// v5RefusedBlocks returns plain version-5 blocks of stackedBlock, each
// with one column changed (and its checksum mended) in a way every
// reader must refuse as ErrBadTrace.
func v5RefusedBlocks(tb testing.TB) map[string][]byte {
	tb.Helper()
	b := stackedBlock()
	var out bytes.Buffer
	if err := WriteTraceEnc(&out, b, Encoding{V2: true}); err != nil {
		tb.Fatal(err)
	}
	block := out.Bytes()
	at := v5ColumnsAt(tb, block[v2HeaderLen:], b.Len(), 8)
	raw := block[v2HeaderLen:]
	if ids, dict := raw[at[6]:at[7]], raw[at[7]:at[8]]; !bytes.Equal(ids, []byte{0, 8, 16, 0, 8, 16, 0, 8}) ||
		!bytes.Equal(dict, []byte{2, 0, 8, 1, 3, 1, 2, 2, 2, 1, 10}) {
		tb.Fatalf("stack IDs % x and dictionary % x are not as stackedBlock says", ids, dict)
	}
	if region, presence := raw[at[3]:at[4]], raw[at[5]:at[6]]; !bytes.Equal(region, []byte{9, 2, runRepeat, 6}) ||
		!bytes.Equal(presence, []byte{1, 1, 8, 1, 26}) {
		tb.Fatalf("region column % x and stack presence % x are not as stackedBlock says", region, presence)
	}
	// with replaces column col (7: the dictionary) with col's bytes as
	// change leaves them.
	with := func(col int, change func(c []byte) []byte) []byte {
		c := change(bytes.Clone(raw[at[col]:at[col+1]]))
		payload := append(append(bytes.Clone(raw[:at[col]]), c...), raw[at[col+1]:]...)
		return v2BlockFromPayload(uint64(b.Len()), 3, 0, payload)
	}
	set := func(i int, v byte) func([]byte) []byte {
		return func(c []byte) []byte { c[i] = v; return c }
	}
	return map[string][]byte{
		"repeat first":           with(0, func(c []byte) []byte { return []byte{runRepeat, 0} }),
		"repeat past the count":  with(3, set(3, 7)),
		"kind 3":                 with(0, func(c []byte) []byte { c[0] |= 3; return c }),
		"repeat with a value":    with(3, set(2, 1<<2|runRepeat)),
		"presence not a bit":     with(5, set(2, byte(zigzag(2))<<2)),
		"one stack ID too many":  with(6, func(c []byte) []byte { return append(c, 0) }),
		"one stack ID too few":   with(6, func(c []byte) []byte { return c[:len(c)-1] }),
		"stack ID past the dict": with(6, set(7, byte(zigzag(3)<<2))),
		"first entry shares":     with(7, set(1, 1)),
		"shares past its depth":  with(7, set(9, 3)),
		"shares past the last":   with(7, set(5, 3)),
	}
}

// v6FlagBlocks returns blocks of times 8 ns apart, so of shift 3, plain
// and deflated, and the same blocks with a flag bit other than the
// flate bit and the shift's set, named "refused …", in the written
// version and in version 5; every reader refuses those and reads the
// others. The flags are outside the checksum, so none is mended.
func v6FlagBlocks(tb testing.TB) map[string][]byte {
	tb.Helper()
	out := map[string][]byte{}
	for _, enc := range []Encoding{{V2: true}, {V2: true, Flate: true}} {
		var w bytes.Buffer
		if err := WriteTraceEnc(&w, timeBlock(8, 16, 24, 800), enc); err != nil {
			tb.Fatal(err)
		}
		name := fmt.Sprintf("shift 3, flate %v", enc.Flate)
		out[name] = w.Bytes()
		for _, bit := range []int{1, 7, 14, 31} {
			for _, ver := range []uint32{traceV2Version, traceV2Version - 1} {
				block := bytes.Clone(w.Bytes())
				binary.LittleEndian.PutUint32(block[4:8], ver)
				binary.LittleEndian.PutUint32(block[8:12], binary.LittleEndian.Uint32(block[8:12])|1<<bit)
				out[fmt.Sprintf("refused bit %d, version %d, %s", bit, ver, name)] = block
			}
		}
	}
	return out
}

// v5StackBlocks returns plain and deflated blocks whose stacks are not
// where the tool puts them: on an event that never otherwise has one,
// and missing from a join (event 2) that otherwise has one.
func v5StackBlocks(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, stackOn := range []int32{1, -1} {
		b := NewTraceBuffer(0, 0)
		for i := range 24 {
			s := Sample{Time: int64(i), Thread: 1, Event: int32(i % 3), Region: uint64(i / 3)}
			switch {
			case s.Event == stackOn && i == 10, s.Event == 2 && stackOn < 0 && i != 14:
				b.AppendStacked(s, []uintptr{0x401000, uintptr(0x500000 + i%2)})
			default:
				s.StackID = NoStack
				b.Append(s)
			}
		}
		for _, enc := range []Encoding{{V2: true}, {V2: true, Flate: true}} {
			var w bytes.Buffer
			if err := WriteTraceEnc(&w, b, enc); err != nil {
				tb.Fatal(err)
			}
			out = append(out, w.Bytes())
		}
	}
	return out
}

// TestV5Refusals: each way a version-5 payload can break the rules of
// its run words, its stack columns or its dictionary is refused, and a
// stack where the tool puts none, or none where it puts one, reads back.
func TestV5Refusals(t *testing.T) {
	for name, block := range v5RefusedBlocks(t) {
		if _, err := ReadTraceStream(bytes.NewReader(block)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: err = %v, want ErrBadTrace", name, err)
		}
	}
	for i, block := range v5StackBlocks(t) {
		if _, err := ReadTraceStream(bytes.NewReader(block)); err != nil {
			t.Errorf("stack block %d: %v", i, err)
		}
	}
}

// v2BlockFromPayload frames a raw (uncompressed) payload as a PSX2
// block of the written version with a correct CRC, for tests that need
// malformed payloads behind a well-formed header.
func v2BlockFromPayload(ns, nst, dropped uint64, payload []byte) []byte {
	var out bytes.Buffer
	var hdr [v2HeaderLen]byte
	copy(hdr[:4], traceV2Magic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], traceV2Version)
	binary.LittleEndian.PutUint64(hdr[12:20], ns)
	binary.LittleEndian.PutUint64(hdr[20:28], nst)
	binary.LittleEndian.PutUint64(hdr[28:36], dropped)
	binary.LittleEndian.PutUint64(hdr[36:44], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[44:48], crc32.ChecksumIEEE(payload))
	out.Write(hdr[:])
	out.Write(payload)
	return out.Bytes()
}

// TestV2PayloadCountDisagreement: a well-formed payload whose decoded
// content is longer than the declared counts must be rejected — the
// exact-consumption check, the structural fix for the v1 ambiguity.
func TestV2PayloadCountDisagreement(t *testing.T) {
	payload := appendRice(nil, []int64{0, 0}, 0, 0) // two samples' worth of columns...
	for c := 0; c < 6; c++ {
		for i := 0; i < 2; i++ {
			payload = appendRunWord(payload, 0, runOne) // each column two runs of one 0, no stack
		}
	}
	if got, err := ReadTraceStream(bytes.NewReader(v2BlockFromPayload(2, 0, 0, payload))); err != nil || got.Len() != 2 {
		t.Fatalf("declared as two: %v", err)
	}
	blk := v2BlockFromPayload(1, 0, 0, payload) // ...declared as one
	if _, err := ReadTraceStream(bytes.NewReader(blk)); !errors.Is(err, ErrBadTrace) ||
		!strings.Contains(err.Error(), "payload larger than declared counts") {
		t.Fatalf("payload larger than declared counts accepted (err=%v)", err)
	}
}

// TestErrCountMismatchV1 is the satellite-1 regression: a final v1
// block whose header-declared sample count exceeds what its payload
// bytes can hold must surface the typed ErrCountMismatch (old code
// reported only a generic truncation, or for some forged counts
// nothing at all). The gap-free prefix must still be salvaged.
func TestErrCountMismatchV1(t *testing.T) {
	stream, bounds, _ := buildMixedStream(t)
	// bounds[2] ends a v2 block; bounds[3] ends a v1 block. Forge the
	// v1 block's nsamples (offset +8 past its magic+version) upward.
	forged := append([]byte(nil), stream[:bounds[3]]...)
	off := bounds[2] + 8
	binary.LittleEndian.PutUint64(forged[off:off+8], 1<<20)
	buf, err := ReadTraceStream(bytes.NewReader(forged))
	if !errors.Is(err, ErrCountMismatch) {
		t.Fatalf("forged v1 count: err = %v, want ErrCountMismatch", err)
	}
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("ErrCountMismatch must wrap ErrBadTrace for the salvage contract")
	}
	prefix := uint64(3 + 5 + 7) // blocks 0 to 2
	if buf == nil || uint64(len(buf.Samples())) != prefix {
		t.Fatalf("prefix = %d samples, want %d", len(buf.Samples()), prefix)
	}
}

// TestErrCountMismatchV2: same regression for a v2 block whose header
// declares a payload longer than the stream holds.
func TestErrCountMismatchV2(t *testing.T) {
	stream, bounds, _ := buildMixedStream(t)
	last := len(bounds) - 1
	forged := append([]byte(nil), stream...)
	off := bounds[last-1] + 36 // payloadLen field of the final (v2) block
	binary.LittleEndian.PutUint64(forged[off:off+8], 1<<20)
	_, err := ReadTraceStream(bytes.NewReader(forged))
	if !errors.Is(err, ErrCountMismatch) {
		t.Fatalf("forged v2 payloadLen: err = %v, want ErrCountMismatch", err)
	}
}

// TestIsV2Block sanity-checks the magic probe the every-path-writes-v2
// tests rely on.
func TestIsV2Block(t *testing.T) {
	b := NewTraceBuffer(0, 0)
	b.Append(Sample{Time: 1, Event: -1, State: -1, StackID: NoStack})
	var v1, v2 bytes.Buffer
	if err := WriteTraceEnc(&v1, b, Encoding{}); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceEnc(&v2, b, Encoding{V2: true}); err != nil {
		t.Fatal(err)
	}
	if IsV2Block(v1.Bytes()) || !IsV2Block(v2.Bytes()) || IsV2Block(nil) {
		t.Fatal("IsV2Block misclassified a block")
	}
}
