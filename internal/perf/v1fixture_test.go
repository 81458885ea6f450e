package perf

import (
	"bytes"
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
				s.StackID = want.InternStack(b.Stack(s.StackID))
			}
			want.Append(s)
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
