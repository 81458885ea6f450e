package perf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// v1FixtureBlocks are the buffers testdata/v1.psxt was written from,
// one WriteTrace call each: a three-sample block for thread 0 whose
// last sample carries a stack, then a two-sample block for thread 1.
func v1FixtureBlocks() []*TraceBuffer {
	b0 := NewTraceBuffer(4, 0)
	b0.Append(Sample{Time: 100, Thread: 0, Event: 1, State: 2, Region: 7, Site: 0x4010, StackID: NoStack})
	b0.Append(Sample{Time: 180, Thread: 0, Event: 5, State: -1, Region: 7, Site: 0x4010, StackID: NoStack})
	b0.AppendStacked(Sample{Time: 260, Thread: 0, Event: 2, State: 1, Region: 7, Site: 0x4010},
		[]uintptr{0x401000, 0x402000, 0x403000})
	b1 := NewTraceBuffer(2, 0)
	b1.Append(Sample{Time: 120, Thread: 1, Event: 5, State: 3, Region: 7, Site: 0x4010, StackID: NoStack})
	b1.Append(Sample{Time: 240, Thread: 1, Event: 6, State: -1, Region: 7, Site: 0x4010, StackID: NoStack})
	return []*TraceBuffer{b0, b1}
}

// TestV1FixtureStillReads: no product path writes v1 any more, so a
// checked-in v1 stream stands for every trace written before PSX2
// became the only written format. Each reader and skim arm must keep
// opening it, and the reference writer must still produce its exact
// bytes — otherwise the tests that compare against WriteTrace would be
// comparing against something no old file ever held.
func TestV1FixtureStillReads(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "v1.psxt"))
	if err != nil {
		t.Fatal(err)
	}
	if IsV2Block(fixture) {
		t.Fatal("testdata/v1.psxt starts with a v2 block")
	}
	want := NewTraceBuffer(0, 0)
	var rewritten bytes.Buffer
	for _, b := range v1FixtureBlocks() {
		if err := WriteTrace(&rewritten, b); err != nil {
			t.Fatal(err)
		}
		for _, s := range b.Samples() {
			if s.StackID != NoStack {
				want.AppendStacked(s, b.Stack(s.StackID))
			} else {
				want.Append(s)
			}
		}
	}
	if !bytes.Equal(rewritten.Bytes(), fixture) {
		t.Fatalf("WriteTrace no longer produces the fixture's bytes (%d bytes, fixture %d)", rewritten.Len(), len(fixture))
	}

	got, err := ReadTraceStream(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("ReadTraceStream: %v", err)
	}
	if !sameResolved(resolve(got), resolve(want)) {
		t.Fatalf("ReadTraceStream samples differ:\n got %+v\nwant %+v", resolve(got), resolve(want))
	}
	if n, err := CountStreamSamples(bytes.NewReader(fixture)); err != nil || n != 5 {
		t.Fatalf("CountStreamSamples = %d, %v; want 5", n, err)
	}
	if n, err := BlockSamples(fixture); err != nil || n != 5 {
		t.Fatalf("BlockSamples = %d, %v; want 5", n, err)
	}
}

// psx2Version1FixtureBlocks are the buffers the PSX2 fixtures,
// testdata/psx2-version5.psxt and the versions before it, were written
// from, each by the last encoder that wrote its PSX2 version: the first
// buffer as a
// plain block, the second deflated. Both carry a stack dictionary (the
// first one stack twice, which the dictionary collapses), repeated
// values in every column, and deltas that wrap a uint64.
func psx2Version1FixtureBlocks() []*TraceBuffer {
	b0 := NewTraceBuffer(8, 0)
	b0.Append(Sample{Time: 1000, Thread: 0, Event: 1, State: 2, Region: 7, Site: 0x401000, StackID: NoStack})
	b0.Append(Sample{Time: 1040, Thread: 0, Event: 5, State: 2, Region: 7, Site: 0x401000, StackID: NoStack})
	b0.Append(Sample{Time: 1090, Thread: 0, Event: 6, State: 2, Region: 7, Site: 0x401000, StackID: NoStack})
	b0.AppendStacked(Sample{Time: 1200, Thread: 0, Event: 2, State: 1, Region: 7, Site: 0x401000},
		[]uintptr{0x401000, 0x402000, 0x403000})
	b0.Append(Sample{Time: 1210, Thread: 0, Event: 1, State: 2, Region: 8, Site: 0x405000, StackID: NoStack})
	b0.AppendStacked(Sample{Time: 1300, Thread: 0, Event: 2, State: 1, Region: 8, Site: 0x405000},
		[]uintptr{0x405000, 0x403000})
	b0.AppendStacked(Sample{Time: 1400, Thread: 0, Event: 2, State: 1, Region: 9, Site: 0x401000},
		[]uintptr{0x401000, 0x402000, 0x403000})
	b0.dropped.Store(3)
	b1 := NewTraceBuffer(6, 0)
	b1.Append(Sample{Time: 1100, Thread: 1, Event: 5, State: -1, Region: math.MaxUint64, Site: 0x401000, StackID: NoStack})
	b1.Append(Sample{Time: 1150, Thread: 1, Event: 6, State: -1, Region: math.MaxUint64, Site: 0x401000, StackID: NoStack})
	b1.Append(Sample{Time: 1160, Thread: 1, Event: 5, State: -1, Region: 1, Site: math.MaxUint64 - 1, StackID: NoStack})
	b1.AppendStacked(Sample{Time: 1170, Thread: 1, Event: 2, State: 0, Region: 1, Site: 0x1000},
		[]uintptr{0x7f0000, 0x401000})
	b1.Append(Sample{Time: 1180, Thread: 1, Event: 6, State: -1, Region: 1, Site: 0x1000, StackID: NoStack})
	return []*TraceBuffer{b0, b1}
}

// TestPSX2FixturesMatchWindow: the readers open the written version
// and the one before it (v2Decodable), and a checked-in stream stands
// for every trace and psxd data directory of a version they open but
// nothing writes. So the fixtures are exactly the window's: none of a
// version the readers refuse, and one of the version before the
// written one.
func TestPSX2FixturesMatchWindow(t *testing.T) {
	names, err := filepath.Glob(filepath.Join("testdata", "psx2-version*.psxt"))
	if err != nil {
		t.Fatal(err)
	}
	have := map[uint32]bool{}
	for _, name := range names {
		var ver uint32
		if _, err := fmt.Sscanf(filepath.Base(name), "psx2-version%d.psxt", &ver); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !v2Decodable(ver) {
			t.Errorf("%s: version %d is outside the readers' window; retire the fixture and its test", name, ver)
		}
		have[ver] = true
	}
	if !have[traceV2Version-1] {
		t.Errorf("no testdata/psx2-version%d.psxt: the version before the written one needs a fixture", traceV2Version-1)
	}
}

// TestPSX2Version5FixtureStillReads: version 6 replaced version 5,
// whose blocks store each time delta unshifted and set no flag but the
// flate bit. A version-5 stream of the same samples, written by the last
// encoder that wrote version 5, stands for every trace and psxd data
// directory written before version 6.
func TestPSX2Version5FixtureStillReads(t *testing.T) {
	checkPSX2Fixture(t, "psx2-version5.psxt", 5)
}

// checkPSX2Fixture reads testdata/name, which must hold
// psx2Version1FixtureBlocks' samples as two PSX2 blocks of version ver,
// the first plain and the second deflated, with the reader and both
// skim arms.
func checkPSX2Fixture(t *testing.T, name string, ver uint32) {
	t.Helper()
	fixture, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	want := NewTraceBuffer(0, 0)
	var wantDropped uint64
	for _, b := range psx2Version1FixtureBlocks() {
		for _, s := range b.Samples() {
			if s.StackID != NoStack {
				want.AppendStacked(s, b.Stack(s.StackID))
			} else {
				want.Append(s)
			}
		}
		wantDropped += b.Dropped()
	}
	// The fixture is what it says: two blocks of its version, the first
	// plain and the second deflated.
	rest := fixture
	for i, wantFlags := range []uint32{0, flagV2Flate} {
		if !IsV2Block(rest) || len(rest) < v2HeaderLen {
			t.Fatalf("block %d is not a PSX2 block", i)
		}
		if v := binary.LittleEndian.Uint32(rest[4:8]); v != ver {
			t.Fatalf("block %d is version %d, want %d", i, v, ver)
		}
		if f := binary.LittleEndian.Uint32(rest[8:12]); f != wantFlags {
			t.Fatalf("block %d flags = %#x, want %#x", i, f, wantFlags)
		}
		rest = rest[v2HeaderLen+binary.LittleEndian.Uint64(rest[36:44]):]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes after the two blocks", len(rest))
	}

	got, err := ReadTraceStream(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("ReadTraceStream: %v", err)
	}
	if !sameResolved(resolve(got), resolve(want)) {
		t.Fatalf("ReadTraceStream samples differ:\n got %+v\nwant %+v", resolve(got), resolve(want))
	}
	if got.NumStacks() != 3 || got.Dropped() != wantDropped {
		t.Fatalf("%d stacks, %d dropped; want 3, %d", got.NumStacks(), got.Dropped(), wantDropped)
	}
	if n, err := CountStreamSamples(bytes.NewReader(fixture)); err != nil || n != uint64(want.Len()) {
		t.Fatalf("CountStreamSamples = %d, %v; want %d", n, err, want.Len())
	}
	if n, err := BlockSamples(fixture); err != nil || n != uint64(want.Len()) {
		t.Fatalf("BlockSamples = %d, %v; want %d", n, err, want.Len())
	}
}
