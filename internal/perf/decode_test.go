package perf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// goodBlock encodes block number blk of a test stream: n samples on
// one thread, the last one with a two-frame stack, and a drop count,
// all distinct per block so a block that leaked into or out of a
// result shows.
func goodBlock(t *testing.T, blk, n int, enc Encoding) []byte {
	t.Helper()
	b := NewTraceBuffer(n, 0)
	for i := 0; i < n-1; i++ {
		b.Append(Sample{Time: int64(blk*1000 + i), Thread: int32(blk), Event: int32(i % 4), State: -1,
			Region: uint64(blk + 1), Site: 0x401000, StackID: NoStack})
	}
	b.AppendStacked(Sample{Time: int64(blk*1000 + n - 1), Thread: int32(blk), Event: 1, State: 2, Region: uint64(blk + 1), Site: 0x401000},
		[]uintptr{uintptr(0x1000 + blk), 0x2000})
	b.dropped.Store(uint64(blk + 1))
	var out bytes.Buffer
	if err := WriteTraceEnc(&out, b, enc); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// repackV2 applies mutate to the raw (inflated) payload of a v2 block
// and frames the result again with a correct length and checksum, so
// that what the reader rejects is the payload's content and not its
// CRC.
func repackV2(t *testing.T, block []byte, mutate func(raw []byte) []byte) []byte {
	t.Helper()
	hdr := append([]byte(nil), block[:v2HeaderLen]...)
	stored := block[v2HeaderLen:]
	deflated := binary.LittleEndian.Uint32(hdr[8:12])&flagV2Flate != 0
	raw := stored
	if deflated {
		var err error
		if raw, err = io.ReadAll(flate.NewReader(bytes.NewReader(stored))); err != nil {
			t.Fatal(err)
		}
	}
	raw = mutate(append([]byte(nil), raw...))
	stored = raw
	if deflated {
		var zb bytes.Buffer
		zw, _ := flate.NewWriter(&zb, flate.BestSpeed)
		zw.Write(raw)
		zw.Close()
		stored = zb.Bytes()
	}
	binary.LittleEndian.PutUint64(hdr[36:44], uint64(len(stored)))
	binary.LittleEndian.PutUint32(hdr[44:48], crc32.ChecksumIEEE(stored))
	return append(hdr, stored...)
}

// corruption damages one encoded block. cut says the damage shortens
// the block, so the stream has to end with it: bytes after a short
// block would be read as its missing tail.
type corruption struct {
	name    string
	cut     bool
	corrupt func(t *testing.T, block []byte, n int) []byte
}

var shortTail = corruption{"short tail", true, func(_ *testing.T, block []byte, _ int) []byte {
	return block[:len(block)-3]
}}

// v1 has no checksum, so the byte flipped is one v1 can notice: the
// top byte of the stack's depth, which sits behind every sample record
// — all n samples have parsed by the time the block turns out bad.
var v1Corruptions = []corruption{
	{"flipped byte", false, func(_ *testing.T, block []byte, n int) []byte {
		out := append([]byte(nil), block...)
		out[16+n*sampleRecordLen+8+3] ^= 0xFF
		return out
	}},
	shortTail,
	{"count above declared extent", false, func(_ *testing.T, block []byte, _ int) []byte {
		out := append([]byte(nil), block...)
		binary.LittleEndian.PutUint64(out[8:16], 1<<20)
		return out
	}},
}

var v2Corruptions = []corruption{
	{"flipped byte", false, func(_ *testing.T, block []byte, _ int) []byte {
		out := append([]byte(nil), block...)
		out[v2HeaderLen+(len(out)-v2HeaderLen)/2] ^= 0xFF
		return out
	}},
	shortTail,
	{"stack index out of range", false, func(t *testing.T, block []byte, n int) []byte {
		return repackV2(t, block, func(raw []byte) []byte {
			// The stack IDs column is entry 0 for the one sample that has
			// a stack; make it entry 5 of a one-entry dictionary.
			off := v5ColumnsAt(t, raw, n, 1)[6]
			if raw[off] != 0 {
				t.Fatalf("stack IDs column starts with %#x, not entry 0", raw[off])
			}
			raw[off] = byte(zigzag(5) << 2)
			return raw
		})
	}},
	{"run past the column", false, func(t *testing.T, block []byte, n int) []byte {
		return repackV2(t, block, func(raw []byte) []byte {
			// The thread column is one run of all n samples. One sample
			// longer, it decodes to the same samples if the run is
			// clamped to the column: it has to be refused instead.
			off := v5ColumnsAt(t, raw, n, 1)[0] + 1
			if raw[off] != byte(n-2) {
				t.Fatalf("thread column is not one run of %d", n)
			}
			raw[off] = byte(n - 1)
			return raw
		})
	}},
	{"count differs from declared", false, func(t *testing.T, block []byte, _ int) []byte {
		// One value more than the declared counts account for.
		return repackV2(t, block, func(raw []byte) []byte { return append(raw, 0) })
	}},
}

// TestCommitAfterValidate corrupts each block of a stream in turn, in
// each way its format can detect, and requires the reader to return
// exactly the blocks before it — samples, stacks and drop count — with
// an error wrapping ErrBadTrace: nothing of a block reaches the merged
// buffer until all of it has passed validation, and nothing after a
// bad block is read.
func TestCommitAfterValidate(t *testing.T) {
	const nblocks, n = 4, 6
	for _, f := range []struct {
		name        string
		enc         Encoding
		corruptions []corruption
	}{
		{"v1", Encoding{}, v1Corruptions},
		{"v2", Encoding{V2: true}, v2Corruptions},
		{"flate", Encoding{V2: true, Flate: true}, v2Corruptions},
	} {
		blocks := make([][]byte, nblocks)
		for blk := range blocks {
			blocks[blk] = goodBlock(t, blk, n, f.enc)
		}
		for _, c := range f.corruptions {
			for k := 0; k < nblocks; k++ {
				prefix := bytes.Join(blocks[:k], nil)
				stream := append(append([]byte(nil), prefix...), c.corrupt(t, blocks[k], n)...)
				if !c.cut {
					stream = append(stream, bytes.Join(blocks[k+1:], nil)...)
				}
				want, err := ReadTraceStream(bytes.NewReader(prefix))
				if err != nil {
					t.Fatalf("intact prefix of %d %s blocks: %v", k, f.name, err)
				}
				// A sized stream has each block's declared extent checked
				// against what remains before it is parsed; an unsized one
				// (a pipe) leaves everything to the decoder itself.
				for _, src := range []struct {
					name string
					r    io.Reader
				}{
					{"sized", bytes.NewReader(stream)},
					{"unsized", struct{ io.Reader }{bytes.NewReader(stream)}},
				} {
					name := fmt.Sprintf("%s/%s/block%d/%s", f.name, c.name, k, src.name)
					got, err := ReadTraceStream(src.r)
					if !errors.Is(err, ErrBadTrace) {
						t.Fatalf("%s: err = %v, want ErrBadTrace", name, err)
					}
					if got.Len() != k*n || !reflect.DeepEqual(got.Samples(), want.Samples()) {
						t.Fatalf("%s: %d samples, want the %d of the blocks before, unchanged", name, got.Len(), k*n)
					}
					if got.NumStacks() != k || !sameResolved(resolve(got), resolve(want)) {
						t.Fatalf("%s: %d stacks, want %d, resolving as in the intact prefix", name, got.NumStacks(), k)
					}
					if got.Dropped() != want.Dropped() {
						t.Fatalf("%s: dropped = %d, want %d", name, got.Dropped(), want.Dropped())
					}
				}
			}
		}
	}
}

// TestFlateSurplusIsNotInflated: a deflated payload is inflated only as
// far as the declared counts could need, plus the byte that proves it
// longer — a few stored bytes cannot make the reader hold a megabyte.
func TestFlateSurplusIsNotInflated(t *testing.T) {
	var zb bytes.Buffer
	zw, _ := flate.NewWriter(&zb, flate.BestSpeed)
	zw.Write(make([]byte, 1<<20))
	zw.Close()
	blk := v2BlockFromPayload(0, 0, 0, zb.Bytes()) // no samples, no stacks: only the time parameter to decode
	binary.LittleEndian.PutUint32(blk[8:12], flagV2Flate)
	d := NewTraceReader(bytes.NewReader(blk))
	d.Next()
	err := d.Err()
	if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "payload larger than declared counts") {
		t.Fatalf("err = %v, want a payload larger than its counts", err)
	}
	if need := 1; d.raw.Len() > need+1 {
		t.Fatalf("inflated %d bytes of a payload whose counts need %d", d.raw.Len(), need)
	}
}

// TestMixedStreamEqualsPerBlockReads: a stream mixing all three
// encodings reads back as its blocks, each read as a stream of its
// own, would merge by hand.
func TestMixedStreamEqualsPerBlockReads(t *testing.T) {
	encs := []Encoding{{}, {V2: true}, {V2: true, Flate: true}, {V2: true}, {}, {V2: true, Flate: true}}
	var stream bytes.Buffer
	var want []resolvedSample
	var wantDropped uint64
	for blk, enc := range encs {
		block := goodBlock(t, blk, 3+blk, enc)
		stream.Write(block)
		one, err := ReadTraceStream(bytes.NewReader(block))
		if err != nil {
			t.Fatalf("block %d: %v", blk, err)
		}
		want = append(want, resolve(one)...)
		wantDropped += one.Dropped()
	}
	got, err := ReadTraceStream(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !sameResolved(resolve(got), want) {
		t.Fatal("merged stream differs from the per-block reads")
	}
	if got.Dropped() != wantDropped || got.NumStacks() != len(encs) {
		t.Fatalf("dropped %d, stacks %d; want %d, %d", got.Dropped(), got.NumStacks(), wantDropped, len(encs))
	}
}

// TestBlockSamplesConcurrent: psxd checks chunks from every connection
// at once, so the pooled readers are shared between goroutines; each
// call must still see only its own block.
func TestBlockSamplesConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		n := 3 + g
		blocks := [][]byte{goodBlock(t, g, n, Encoding{}), goodBlock(t, g, n, Encoding{V2: true}),
			goodBlock(t, g, n, Encoding{V2: true, Flate: true})}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if got, err := BlockSamples(blocks[i%len(blocks)]); err != nil || got != uint64(n) {
					t.Errorf("BlockSamples = %d, %v; want %d", got, err, n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAppendCallstackMatchesCallstack: the scratch-captured stack is
// the one Callstack returns from the same frame, and a sample dropped
// at the limit interns nothing.
func TestAppendCallstackMatchesCallstack(t *testing.T) {
	b := NewTraceBuffer(0, 0)
	var want []uintptr
	// One call site for both captures, so the frames they see — this
	// function at that call, and everything above it — are the same.
	for _, capture := range []func(){
		func() { want = Callstack(1, callstackDepth) },
		func() { b.AppendCallstack(Sample{Time: 1}, 1) },
	} {
		capture()
	}
	if len(want) == 0 {
		t.Fatal("Callstack captured nothing")
	}
	if got := b.Samples(); len(got) != 1 || got[0].StackID != 0 {
		t.Fatalf("samples = %+v, want one with stack 0", got)
	}
	if got := b.Stack(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendCallstack captured %#x, Callstack %#x", got, want)
	}

	limited := NewTraceBuffer(0, 2) // room for one stacked sample
	limited.AppendCallstack(Sample{Time: 1}, 0)
	limited.AppendCallstack(Sample{Time: 2}, 0)
	if limited.Len() != 1 || limited.NumStacks() != 1 || limited.Dropped() != 1 {
		t.Fatalf("at the limit: %d samples, %d stacks, %d dropped; want 1, 1, 1",
			limited.Len(), limited.NumStacks(), limited.Dropped())
	}
}
