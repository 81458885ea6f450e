package perf

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// The collector's numbers for the events a report-shaped trace holds
// (perf cannot import the collector, which records through it).
const (
	evFork, evJoin, evBeginIBar, evEndIBar = 0, 1, 4, 5
)

// reportStream is thread 0's streamed trace file of a run shaped like
// the one a report reads: per parallel region the master forks, enters
// and leaves the implicit barrier, and joins with one of 64 call paths
// of 6 to 15 frames. Blocks are v2, a chunk each, as the tool seals
// them. It returns the file and its sample count.
func reportStream(tb testing.TB, regions int) ([]byte, int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	stacks := make([][]uintptr, 64)
	for i := range stacks {
		stacks[i] = make([]uintptr, 6+rng.Intn(10))
		for j := range stacks[i] {
			stacks[i][j] = uintptr(0x400000 + rng.Intn(1<<20))
		}
	}
	var out bytes.Buffer
	b := NewTraceBuffer(ChunkSamples, 0)
	n := 0
	add := func(s Sample, pcs []uintptr) {
		if pcs != nil {
			b.AppendStacked(s, pcs)
		} else {
			b.Append(s)
		}
		if n++; n%ChunkSamples == 0 {
			if err := WriteTraceEnc(&out, b, Encoding{V2: true}); err != nil {
				tb.Fatal(err)
			}
			b = NewTraceBuffer(ChunkSamples, 0)
		}
	}
	now := int64(1000)
	for r := 1; r <= regions; r++ {
		region, site := uint64(r), uint64(0x500000+rng.Intn(32)*0x40)
		s := Sample{Thread: 0, Region: region, Site: site, StackID: NoStack}
		s.Time, s.Event, s.State = now, evFork, 1
		add(s, nil)
		now += 200 + rng.Int63n(4000)
		s.Time, s.Event, s.State = now, evBeginIBar, 3
		add(s, nil)
		now += rng.Int63n(200)
		s.Time, s.Event, s.State = now, evEndIBar, 1
		add(s, nil)
		now += 130
		s.Time, s.Event = now, evJoin
		add(s, stacks[rng.Intn(len(stacks))])
		now += 100 + rng.Int63n(500)
	}
	if b.Len() > 0 {
		if err := WriteTraceEnc(&out, b, Encoding{V2: true}); err != nil {
			tb.Fatal(err)
		}
	}
	return out.Bytes(), n
}

// BenchmarkReadTraceStream reads one thread's file of a report-shaped
// run and takes its samples out, as ompreport does per trace file, and
// reports the cost per sample read.
func BenchmarkReadTraceStream(b *testing.B) {
	stream, n := reportStream(b, 20000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := ReadTraceStream(bytes.NewReader(stream))
		if err != nil {
			b.Fatal(err)
		}
		if got := len(buf.Samples()); got != n {
			b.Fatalf("ReadTraceStream: %d of %d samples", got, n)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N) * float64(n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/sample")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/sample")
}

// BenchmarkWriteTraceEnc encodes the blocks of reportStream's file again,
// one WriteTraceEnc call per chunk as the streamer makes them, and
// reports the cost and the size per sample written.
func BenchmarkWriteTraceEnc(b *testing.B) {
	stream, n := reportStream(b, 20000)
	var chunks []*TraceBuffer
	read := 0
	for r := NewTraceReader(bytes.NewReader(stream)); r.Next(); {
		var one traceBuilder
		one.commit(r)
		chunks = append(chunks, recorded(one.trace()))
		read += len(r.Samples())
	}
	if read != n {
		b.Fatalf("read %d of %d samples back", read, n)
	}
	var out countingWriter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range chunks {
			if err := WriteTraceEnc(&out, c, Encoding{V2: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	per := float64(b.N) * float64(n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/sample")
	b.ReportMetric(float64(out)/per, "bytes/sample")
}

// countingWriter keeps only the number of bytes written to it.
type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}
