package perf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// failingWriter errors after n bytes, to exercise every write-error
// branch in the trace serializer.
type failingWriter struct {
	n       int
	written int
}

var errSink = errors.New("sink failed")

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		return 0, errSink
	}
	f.written += len(p)
	return len(p), nil
}

func fullBuffer() *TraceBuffer {
	b := NewTraceBuffer(0, 0)
	b.AppendStacked(Sample{Time: 0, Thread: 1, Event: 2, State: 3, Region: 4}, []uintptr{1, 2, 3})
	sid := b.Samples()[0].StackID
	for i := 1; i < 10; i++ {
		b.Append(Sample{Time: int64(i), Thread: 1, Event: 2, State: 3, Region: 4, StackID: sid})
	}
	return b
}

func TestWriteTraceErrorPropagation(t *testing.T) {
	b := fullBuffer()
	// Find the full size, then fail at several cut points.
	var ok bytes.Buffer
	if err := WriteTrace(&ok, b); err != nil {
		t.Fatal(err)
	}
	total := ok.Len()
	for _, cut := range []int{0, 3, 7, 11, 20, total / 2, total - 4} {
		fw := &failingWriter{n: cut}
		if err := WriteTrace(fw, b); err == nil {
			t.Errorf("cut at %d bytes: no error", cut)
		}
	}
}

func TestReadTraceVersionMismatch(t *testing.T) {
	b := fullBuffer()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, b); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint32(data[4:], 99) // corrupt version
	if _, err := ReadTraceStream(bytes.NewReader(data)); err == nil {
		t.Error("version 99 accepted")
	}
}

func TestReadTraceAbsurdCounts(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(traceMagic[:])
	var w [8]byte
	binary.LittleEndian.PutUint32(w[:4], traceVersion)
	buf.Write(w[:4])
	binary.LittleEndian.PutUint64(w[:], 1<<40) // absurd sample count
	buf.Write(w[:])
	if _, err := ReadTraceStream(&buf); err == nil {
		t.Error("absurd sample count accepted")
	}

	// Absurd stack depth, in a block whose one stack no sample names:
	// no writer makes one, but a reader accepts it.
	var good bytes.Buffer
	good.Write(traceMagic[:])
	for _, v := range []any{uint32(traceVersion), uint64(0), uint64(1), uint32(1), uint64(1), uint64(0)} {
		binary.Write(&good, binary.LittleEndian, v) // nsamples, nstacks, depth, its PC, dropped
	}
	if tr, err := ReadTraceStream(bytes.NewReader(good.Bytes())); err != nil || tr.NumStacks() != 1 {
		t.Fatalf("a block with an unnamed stack: %v", err)
	}
	data := good.Bytes()
	// Layout: magic(4) version(4) nsamples(8)=0 nstacks(8)=1 depth(4)...
	binary.LittleEndian.PutUint32(data[24:], 1<<20)
	if _, err := ReadTraceStream(bytes.NewReader(data)); err == nil {
		t.Error("absurd stack depth accepted")
	}
}

func TestReadTraceTruncatedMidSamples(t *testing.T) {
	b := fullBuffer()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, b); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{17, 30, 50, len(data) - 3} {
		if cut >= len(data) {
			continue
		}
		if _, err := ReadTraceStream(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestNewTraceBufferNegativeCapacity(t *testing.T) {
	b := NewTraceBuffer(-5, 0)
	b.Append(Sample{})
	if len(b.Samples()) != 1 {
		t.Error("negative-capacity buffer unusable")
	}
}

func TestHistogramMergeIntoEmpty(t *testing.T) {
	dst := NewStateHistogram()
	src := NewStateHistogram()
	src.Observe(3, 1)
	src.Observe(3, 1)
	dst.Merge(src)
	if dst.Counts[3][1] != 2 {
		t.Errorf("merge into empty: %v", dst.Counts)
	}
}

var _ io.Writer = (*failingWriter)(nil)

func TestRegionProfileBySite(t *testing.T) {
	samples := []Sample{
		{Time: 0, Event: 0, Site: 0xA},
		{Time: 10, Event: 1, Site: 0xA, Region: 1},
		{Time: 20, Event: 0, Site: 0xA},
		{Time: 50, Event: 1, Site: 0xA, Region: 2},
		{Time: 60, Event: 0, Site: 0xB},
		{Time: 65, Event: 1, Site: 0xB, Region: 3},
	}
	stats := RegionProfileBySite(samples, 0, 1)
	if len(stats) != 2 {
		t.Fatalf("sites = %d, want 2", len(stats))
	}
	// Sorted by total time descending: site A (10+30=40) first.
	if stats[0].Site != 0xA || stats[0].Calls != 2 || stats[0].TotalTime != 40 {
		t.Errorf("site A stats = %+v", stats[0])
	}
	if stats[1].Site != 0xB || stats[1].Calls != 1 || stats[1].TotalTime != 5 {
		t.Errorf("site B stats = %+v", stats[1])
	}

	var buf bytes.Buffer
	WriteRegionSiteTable(&buf, stats, func(site uint64) string {
		if site == 0xA {
			return "solverX"
		}
		return "other"
	})
	if !strings.Contains(buf.String(), "solverX") {
		t.Errorf("resolved label missing:\n%s", buf.String())
	}
	var hexBuf bytes.Buffer
	WriteRegionSiteTable(&hexBuf, stats, nil)
	if !strings.Contains(hexBuf.String(), "0xa") {
		t.Errorf("hex label missing:\n%s", hexBuf.String())
	}
}

func TestTraceRoundTripPreservesSite(t *testing.T) {
	b := NewTraceBuffer(0, 0)
	b.Append(Sample{Time: 1, Site: 0xDEAD, Region: 2, StackID: NoStack})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples()[0].Site != 0xDEAD {
		t.Errorf("site = %#x, want 0xDEAD", got.Samples()[0].Site)
	}
}

func TestReadTraceStreamMergesChunks(t *testing.T) {
	var stream bytes.Buffer
	// Chunk 1: one sample with stack 0.
	c1 := NewTraceBuffer(0, 0)
	c1.AppendStacked(Sample{Time: 1}, []uintptr{0xA})
	if err := WriteTrace(&stream, c1); err != nil {
		t.Fatal(err)
	}
	// Chunk 2: sample with its own (chunk-local) stack 0 and one without.
	c2 := NewTraceBuffer(0, 0)
	c2.AppendStacked(Sample{Time: 2}, []uintptr{0xB, 0xC})
	c2.Append(Sample{Time: 3, StackID: NoStack})
	if err := WriteTrace(&stream, c2); err != nil {
		t.Fatal(err)
	}

	merged, err := ReadTraceStream(&stream)
	if err != nil {
		t.Fatal(err)
	}
	ss := merged.Samples()
	if len(ss) != 3 || merged.NumStacks() != 2 {
		t.Fatalf("merged %d samples, %d stacks", len(ss), merged.NumStacks())
	}
	// The second chunk's stack ID must have been rebased to 1.
	if st := merged.Stack(ss[1].StackID); len(st) != 2 || st[0] != 0xB {
		t.Errorf("rebased stack = %v", st)
	}
	if ss[2].StackID != NoStack {
		t.Error("NoStack got rebased")
	}
	// Empty stream merges to empty.
	empty, err := ReadTraceStream(bytes.NewReader(nil))
	if err != nil || len(empty.Samples()) != 0 {
		t.Errorf("empty stream: %v, %d samples", err, len(empty.Samples()))
	}
	// A corrupt second chunk surfaces the error.
	stream.Reset()
	WriteTrace(&stream, c1)
	stream.WriteString("garbage")
	if _, err := ReadTraceStream(&stream); err == nil {
		t.Error("corrupt tail accepted")
	}
}
