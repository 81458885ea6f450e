package perf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// forgedTails returns the mixed stream cut and forged two ways, each
// with the length of its intact prefix: a v1 block whose declared
// record count is more than the stream holds, and a last v2 block whose
// declared payload is.
func forgedTails(t *testing.T) map[string]struct {
	stream []byte
	prefix int
} {
	stream, bounds, _ := buildMixedStream(t)
	v1 := bytes.Clone(stream[:bounds[3]])
	binary.LittleEndian.PutUint64(v1[bounds[2]+8:], 1<<20)
	last := len(bounds) - 1
	v2 := bytes.Clone(stream)
	binary.LittleEndian.PutUint64(v2[bounds[last-1]+36:], 1<<20)
	return map[string]struct {
		stream []byte
		prefix int
	}{"v1": {v1, bounds[2]}, "v2": {v2, bounds[last-1]}}
}

// tempTrace writes data to a file of its own and opens it.
func tempTrace(t *testing.T, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.0.psxt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestErrCountMismatchOnFile: a torn tail read from a regular file, the
// reader ompreport and psxd's /profile hand over, is the
// typed ErrCountMismatch, and both the reader and the count keep the
// blocks before it.
func TestErrCountMismatchOnFile(t *testing.T) {
	for name, tc := range forgedTails(t) {
		want, _ := perBlock(tc.stream[:tc.prefix])
		buf, err := ReadTraceStream(tempTrace(t, tc.stream))
		if !errors.Is(err, ErrCountMismatch) {
			t.Fatalf("%s: ReadTraceStream err = %v, want ErrCountMismatch", name, err)
		}
		if !sameResolved(resolve(buf), want) {
			t.Fatalf("%s: read %d samples, not the intact prefix's %d", name, buf.Len(), len(want))
		}
		n, err := CountStreamSamples(tempTrace(t, tc.stream))
		if !errors.Is(err, ErrCountMismatch) || n != uint64(len(want)) {
			t.Fatalf("%s: CountStreamSamples = %d, %v; want %d, ErrCountMismatch", name, n, err, len(want))
		}
	}
}

// growOnRewind is a trace file that another writer appends a block to
// as soon as the reader seeks back to where it started.
type growOnRewind struct {
	*os.File
	block []byte
}

func (g growOnRewind) Seek(offset int64, whence int) (int64, error) {
	if whence == io.SeekStart {
		w, err := os.OpenFile(g.Name(), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return 0, err
		}
		_, err = w.Write(g.block)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
	}
	return g.File.Seek(offset, whence)
}

// TestReadTraceStreamReadsAsSkimmed: a file that grows while it is read,
// as a run psxd is still writing does, is read as it stood when it was
// skimmed — every block the skim accepted and nothing after them — with
// no error.
func TestReadTraceStreamReadsAsSkimmed(t *testing.T) {
	stream, _, total := buildMixedStream(t)
	want, _ := perBlock(stream)
	f := tempTrace(t, stream)
	buf, err := ReadTraceStream(growOnRewind{File: f, block: goodBlock(t, 9, 8, Encoding{V2: true})})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResolved(resolve(buf), want) {
		t.Fatalf("read %d samples, want the %d the file held when skimmed", buf.Len(), len(want))
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if n, err := CountStreamSamples(f); err != nil || n != total+8 {
		t.Fatalf("the file now counts %d samples (%v), want %d: it did not grow", n, err, total+8)
	}
}
