package perf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzReadTrace drives the binary trace readers with arbitrary bytes:
// they must never panic or over-allocate, a stream ReadTraceStream reads
// whole must re-serialize, and whatever prefix it reads must resolve,
// sample for sample, to the frames a TraceReader gives block by block,
// each block's stacks read from its own table, with the same drops and
// the same error, keeping each distinct path once.
//
// It also checks that the skim and the decoder agree. ReadTraceStream
// skims a stream it can seek and commits at most the blocks the skim
// accepted; a stream it cannot seek is decoded to its end with no skim.
// The two reads must give the same samples, and fail alike. Whatever
// ReadTraceStream reads, CountStreamSamples counts (so psxd's count
// check never refuses a block a reader would open), and a stream read
// whole is counted exactly. The converse does not hold: the skim
// accepts a block whose checksum matches but whose payload will not
// decode — the run stretched past the sample count below is one — and
// counts samples the reader refuses.
func FuzzReadTrace(f *testing.F) {
	// Seeds: a valid trace with samples and stacks, an empty trace,
	// and corrupt variants.
	b := NewTraceBuffer(0, 0)
	b.AppendStacked(Sample{Time: 5, Thread: 1, Event: 2, State: 3, Region: 4, Site: 9}, []uintptr{0x10, 0x20})
	var valid bytes.Buffer
	if err := WriteTrace(&valid, b); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	var empty bytes.Buffer
	if err := WriteTrace(&empty, NewTraceBuffer(0, 0)); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte("PSXT"))
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid.Bytes()...)
	corrupt[10] ^= 0xFF
	f.Add(corrupt)
	// v2 seeds: plain and flate-compressed blocks, a bare magic, and a
	// corrupt-payload variant (CRC must reject, never panic).
	var v2, v2z bytes.Buffer
	if err := WriteTraceEnc(&v2, b, Encoding{V2: true}); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	if err := WriteTraceEnc(&v2z, b, Encoding{V2: true, Flate: true}); err != nil {
		f.Fatal(err)
	}
	f.Add(v2z.Bytes())
	f.Add([]byte("PSX2"))
	corrupt2 := append([]byte(nil), v2.Bytes()...)
	corrupt2[len(corrupt2)-1] ^= 0xFF
	f.Add(corrupt2)
	hdrOnly := append([]byte(nil), v2.Bytes()[:v2HeaderLen]...)
	f.Add(hdrOnly)
	// Run-coded seeds: a block whose columns are long runs, and runs
	// broken by joins with stacks and by region deltas that need the run
	// word's top bits, plain and deflated; the same block with its first
	// run stretched past the sample count; and a version-5 stream.
	runs := NewTraceBuffer(0, 0)
	for i := 0; i < 40; i++ {
		s := Sample{Time: int64(i * 10), Thread: 3, Event: int32(i % 2), State: 1, Region: uint64(i / 8), Site: 0x401000, StackID: NoStack}
		switch {
		case i%8 == 7:
			runs.AppendStacked(s, []uintptr{0x401000, uintptr(0x500000 + i)})
		case i%13 == 0:
			s.Region = 1<<63 + uint64(i)
			runs.Append(s)
		default:
			runs.Append(s)
		}
	}
	for _, enc := range []Encoding{{V2: true}, {V2: true, Flate: true}} {
		var blk bytes.Buffer
		if err := WriteTraceEnc(&blk, runs, enc); err != nil {
			f.Fatal(err)
		}
		f.Add(blk.Bytes())
	}
	var one bytes.Buffer
	if err := WriteTraceEnc(&one, runs, Encoding{V2: true}); err != nil {
		f.Fatal(err)
	}
	payload := append([]byte(nil), one.Bytes()[v2HeaderLen:]...)
	payload[timeColumnEnd(payload, runs.Len())+1]++ // the thread column's one run, one sample longer
	stretched := v2BlockFromPayload(uint64(runs.Len()), uint64(runs.NumStacks()), 0, payload)
	f.Add(stretched)
	// The time column at its edges: a valid k = 0 block, one declaring
	// k out of range, and a unary part the payload cuts off.
	validK, badK, cut := riceEdgeBlocks(f)
	f.Add(validK)
	f.Add(badK)
	f.Add(cut)
	version5, err := os.ReadFile(filepath.Join("testdata", "psx2-version5.psxt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(version5)
	// A stream whose blocks, one of each encoding, repeat one path.
	var repeats bytes.Buffer
	for _, enc := range []Encoding{{}, {V2: true}, {V2: true, Flate: true}} {
		if err := WriteTraceEnc(&repeats, b, enc); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(repeats.Bytes())
	// A v2 stream torn inside its last block's payload, and a v1 block
	// whose header declares more records than follow it.
	f.Add(append(bytes.Clone(v2.Bytes()), v2.Bytes()[:len(v2.Bytes())-3]...))
	forged := bytes.Clone(valid.Bytes())
	binary.LittleEndian.PutUint64(forged[8:16], 1<<20)
	f.Add(forged)

	// Version 5's refusals: a repeat first in its column, or past the
	// sample count; kind 3; one stack ID too many and one too few; an ID
	// past the dictionary; and dictionary entries that share more frames
	// than they or the entry before have. Then stacks where the tool puts
	// none, and none where it puts one, which read back.
	refused := v5RefusedBlocks(f)
	for _, name := range []string{"repeat first", "repeat past the count", "kind 3", "repeat with a value", "presence not a bit",
		"one stack ID too many", "one stack ID too few", "stack ID past the dict", "first entry shares",
		"shares past its depth", "shares past the last"} {
		f.Add(refused[name])
	}
	for _, block := range v5StackBlocks(f) {
		f.Add(block)
	}
	// Version 6's shift: a block of shift 3, plain and deflated, and the
	// same with a flag bit set that is neither the flate bit nor the
	// shift's, which every reader refuses.
	flags := v6FlagBlocks(f)
	names := make([]string, 0, len(flags))
	for name := range flags {
		names = append(names, name)
	}
	slices.Sort(names) // seeds in a fixed order
	for _, name := range names {
		f.Add(flags[name])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		all, err := ReadTraceStream(bytes.NewReader(data))
		var want []resolvedSample
		wantPaths := make(map[string]bool)
		var dropped uint64
		r := NewTraceReader(bytes.NewReader(data))
		for r.Next() {
			want = append(want, resolve(staged{r})...)
			for p := range paths(staged{r}) {
				wantPaths[p] = true
			}
			dropped += r.Dropped()
		}
		if !sameResolved(resolve(all), want) || all.Dropped() != dropped {
			t.Fatal("the stream's samples resolve differently from its blocks read one at a time")
		}
		if fmt.Sprint(r.Err()) != fmt.Sprint(err) {
			t.Fatalf("TraceReader stopped at %v; ReadTraceStream at %v", r.Err(), err)
		}
		unskimmed, uerr := ReadTraceStream(struct{ io.Reader }{bytes.NewReader(data)})
		if !sameResolved(resolve(unskimmed), want) {
			t.Fatal("a stream read without a skim resolves differently from one read after it")
		}
		if (err == nil) != (uerr == nil) || errors.Is(err, ErrBadTrace) != errors.Is(uerr, ErrBadTrace) {
			t.Fatalf("read after a skim: %v; without one: %v", err, uerr)
		}
		n, cerr := CountStreamSamples(bytes.NewReader(data))
		if n < uint64(all.Len()) || err == nil && (n != uint64(all.Len()) || cerr != nil) {
			t.Fatalf("CountStreamSamples = %d, %v; ReadTraceStream read %d samples, %v", n, cerr, all.Len(), err)
		}
		if all.NumStacks() != len(wantPaths) || len(paths(all)) != len(wantPaths) {
			t.Fatalf("the stream keeps %d stacks (%d distinct), its blocks %d distinct paths",
				all.NumStacks(), len(paths(all)), len(wantPaths))
		}

		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, recorded(all)); err != nil {
			t.Fatalf("accepted trace failed to re-serialize: %v", err)
		}
		again, err := ReadTraceStream(&out)
		if err != nil {
			t.Fatalf("round trip of accepted trace failed: %v", err)
		}
		if len(again.Samples()) != len(all.Samples()) {
			t.Fatal("round trip changed sample count")
		}
		// Whatever was accepted, the run coder writes and reads back
		// sample for sample.
		out.Reset()
		if err := WriteTraceEnc(&out, recorded(all), Encoding{V2: true}); err != nil {
			t.Fatalf("accepted trace failed to encode as PSX2: %v", err)
		}
		if v2, err := ReadTraceStream(&out); err != nil || !sameResolved(resolve(v2), resolve(all)) {
			t.Fatalf("PSX2 round trip of accepted trace changed it (err=%v)", err)
		}
	})
}
