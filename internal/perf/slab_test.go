package perf

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
)

// paths is the set of call paths a buffer's stack table holds.
func paths(b traceView) map[string]bool {
	out := make(map[string]bool)
	for id := 0; id < b.NumStacks(); id++ {
		out[fmt.Sprint(b.Stack(int32(id)))] = true
	}
	return out
}

// staged is the block a TraceReader has staged, its stacks read from
// the block's own table; Stack returns a copy, which outlives the block.
type staged struct{ *TraceReader }

func (b staged) Len() int       { return len(b.samples) }
func (b staged) NumStacks() int { return len(b.ends) }

func (b staged) Stack(id int32) []uintptr {
	if id < 0 || int(id) >= len(b.ends) {
		return nil
	}
	start := 0
	if id > 0 {
		start = b.ends[id-1]
	}
	return slices.Clone(b.pcs[start:b.ends[id]])
}

// perBlock reads stream one block at a time with a TraceReader, as far
// as the blocks read, and returns their samples resolved through each
// block's own table, in order, and the distinct paths of those tables.
func perBlock(stream []byte) ([]resolvedSample, map[string]bool) {
	var out []resolvedSample
	all := make(map[string]bool)
	for r := NewTraceReader(bytes.NewReader(stream)); r.Next(); {
		out = append(out, resolve(staged{r})...)
		for p := range paths(staged{r}) {
			all[p] = true
		}
	}
	return out, all
}

// TestReadTraceStreamForgedCountAllocatesLittle: the count a reader
// sizes its slab by cannot be forged. A header that declares 2²⁶
// samples over a 4-byte payload, plain or deflated, or 2²⁶ v1 records
// with none present, is refused, and reading it costs what its bytes
// do, not 2.5 GiB.
func TestReadTraceStreamForgedCountAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	const forged, ceiling = 1 << 26, 1 << 20
	plain := v2BlockFromPayload(forged, 0, 0, []byte{2, 2, 2, 2})
	deflated := v2BlockFromPayload(forged, 0, 0, []byte{2, 2, 2, 2})
	binary.LittleEndian.PutUint32(deflated[8:12], flagV2Flate)
	v1 := append([]byte(nil), traceMagic[:]...)
	v1 = binary.LittleEndian.AppendUint32(v1, traceVersion)
	v1 = binary.LittleEndian.AppendUint64(v1, forged)
	for _, f := range []struct {
		name  string
		block []byte
	}{{"v2", plain}, {"flate", deflated}, {"v1", v1}} {
		// Behind a valid block, too: the skim's count covers the blocks
		// it passes, and the forged one's bytes.
		good := goodBlock(t, 0, 8, Encoding{V2: true})
		for _, stream := range [][]byte{f.block, append(good, f.block...)} {
			for _, src := range []struct {
				name string
				r    func() io.Reader
			}{
				{"sized", func() io.Reader { return bytes.NewReader(stream) }},
				{"unsized", func() io.Reader { return struct{ io.Reader }{bytes.NewReader(stream)} }},
			} {
				name := fmt.Sprintf("%s/%d bytes/%s", f.name, len(stream), src.name)
				var buf *Trace
				var err error
				r := src.r()
				got := allocatedBytes(func() { buf, err = ReadTraceStream(r) })
				if !errors.Is(err, ErrBadTrace) {
					t.Fatalf("%s: err = %v, want ErrBadTrace", name, err)
				}
				want := 0
				if len(stream) > len(f.block) {
					want = 8 // the valid block's
				}
				if buf.Len() != want {
					t.Fatalf("%s: %d samples, want %d", name, buf.Len(), want)
				}
				if got > ceiling {
					t.Fatalf("%s: reading allocated %d bytes, ceiling %d", name, got, ceiling)
				}
			}
		}
	}
}

// TestV4ZeroBlockSlabSizedOnce: since the time column is Rice-coded
// (version 4 on) a sample of the written version may take one bit of
// the payload, so the skim's bound on a plain block is one sample
// per payload bit, and a legal block of 256 samples in a few dozen
// bytes is read into a slab made once, at the skim's count.
func TestV4ZeroBlockSlabSizedOnce(t *testing.T) {
	valid, _, _ := riceEdgeBlocks(t)
	n, _, err := skim(bufio.NewReader(bytes.NewReader(valid)), true)
	if err != nil || n != 256 || len(valid)-v2HeaderLen >= 256 {
		t.Fatalf("skim of a %d-byte payload: %d samples, %v; want 256", len(valid)-v2HeaderLen, n, err)
	}
	r := NewTraceReader(bytes.NewReader(valid))
	d := traceBuilder{slab: make([]Sample, 0, r.Bound())}
	slab := d.slab[:1]
	if !r.Next() {
		t.Fatal(r.Err())
	}
	d.commit(r)
	if len(d.slab) != 256 || &d.slab[0] != &slab[0] {
		t.Fatalf("%d samples read into a slab made again", len(d.slab))
	}
}

// TestSamplesHandsOverTheSlab: a decoded Trace's Samples is its slab,
// with no copy and no room to append into.
func TestSamplesHandsOverTheSlab(t *testing.T) {
	buf, err := ReadTraceStream(bytes.NewReader(allocStream(t, 3)))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.Samples()
	if len(out) != 3*ChunkSamples || cap(out) != len(out) {
		t.Fatalf("Samples: len %d, cap %d; want both %d", len(out), cap(out), 3*ChunkSamples)
	}
	if !raceEnabled {
		if avg := testing.AllocsPerRun(100, func() { buf.Samples() }); avg != 0 {
			t.Fatalf("Samples of a decoded buffer allocates %.1f times, want 0", avg)
		}
	}
	if again := buf.Samples(); &again[0] != &out[0] {
		t.Fatal("Samples of a decoded buffer copied it")
	}
}

// TestReadTraceStreamStoresEachPathOnce: blocks of every encoding that
// repeat each other's call paths read back, sample for sample, to the
// frames each block read alone gives, and the merged buffer keeps each
// distinct path once — on a stream it counts first and on one it
// cannot.
func TestReadTraceStreamStoresEachPathOnce(t *testing.T) {
	shared := [][]uintptr{{0x401000, 0x402000}, {0x401000, 0x402008, 0x403000}, {}, {0x405000}}
	var stream bytes.Buffer
	for blk, enc := range []Encoding{{}, {V2: true}, {V2: true, Flate: true}, {V2: true}, {}, {V2: true, Flate: true}} {
		b := NewTraceBuffer(0, 0)
		for i := 0; i < 40; i++ {
			s := Sample{Time: int64(blk*1000 + i), Thread: 1, Event: int32(i % 3), Region: uint64(blk), StackID: NoStack}
			switch {
			case i%5 == 0:
				b.AppendStacked(s, shared[(blk+i/5)%len(shared)])
			case i%7 == 0:
				b.AppendStacked(s, []uintptr{0x600000, uintptr(blk)}) // this block's own path
			default:
				b.Append(s)
			}
		}
		if err := WriteTraceEnc(&stream, b, enc); err != nil {
			t.Fatal(err)
		}
	}
	want, wantPaths := perBlock(stream.Bytes())
	if len(wantPaths) != len(shared)+6 {
		t.Fatalf("the blocks hold %d distinct paths, want %d", len(wantPaths), len(shared)+6)
	}
	for _, r := range []io.Reader{bytes.NewReader(stream.Bytes()), struct{ io.Reader }{bytes.NewReader(stream.Bytes())}} {
		got, err := ReadTraceStream(r)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResolved(resolve(got), want) {
			t.Fatalf("%T: merged samples resolve differently from the blocks read alone", r)
		}
		if got.NumStacks() != len(wantPaths) || len(paths(got)) != len(wantPaths) {
			t.Fatalf("%T: %d stacks (%d distinct), want %d", r, got.NumStacks(), len(paths(got)), len(wantPaths))
		}
	}
}
