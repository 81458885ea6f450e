package perf

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ReadTraceStream reads a concatenation of trace blocks (as produced
// by the streaming storage: one block per sealed chunk plus a final
// residue block; v1 "PSXT" and v2 "PSX2" in any mix) until EOF and
// merges them into one buffer. A stream holds sample blocks and nothing
// else: the diagnosis of a hung run is a file beside the traces
// (HangReport).
//
// The buffer holds every sample in one slab, which its Samples hands
// out without a copy (read-only), and each distinct call path once:
// the stack IDs are the buffer's own, so two blocks that carried the
// same path give their samples the same ID. When r can also seek (a
// regular file, a byte reader), the stream is skimmed first, as
// CountStreamSamples does, to size the slab; a block adds at most one
// sample per byte it holds to that count, whatever its header declares,
// so the slab is never larger than the stream's bytes allow. Other
// streams grow the slab as their blocks commit.
//
// A truncated or corrupt stream — a trace file torn by a mid-write
// failure or an interrupted run — does not void the data before the
// damage: the merged gap-free prefix of complete blocks is returned
// alongside a non-nil error wrapping ErrBadTrace, so readers can
// salvage a partial trace while still reporting the damage. Blocks are
// written in append order, so the prefix has no holes.
//
// On sized streams (regular files, byte readers) each block's
// header-declared extent — sample count × record width for v1, the
// declared payload length for v2 — is cross-checked against the bytes
// actually remaining before the block is parsed. A final block whose
// header promises more than the stream holds is a torn tail: it
// reports the typed ErrCountMismatch instead of whatever the
// misaligned bytes happen to parse as (v1's untagged record array can
// otherwise misparse a forged count silently).
func ReadTraceStream(r io.Reader) (*TraceBuffer, error) {
	total, sized := streamRemaining(r)
	n := 0
	if rs, ok := r.(io.ReadSeeker); sized && ok {
		var err error
		if n, err = slabSize(rs); err != nil {
			return newBlockDecoder(nil, 0).buffer(), err
		}
	}
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	d := newBlockDecoder(br, n)
	for {
		head, err := br.Peek(4)
		if len(head) < 4 {
			if err == io.EOF {
				err = nil
				if len(head) > 0 {
					err = fmt.Errorf("%w: truncated block", ErrBadTrace)
				}
			}
			return d.buffer(), err
		}
		if sized {
			// Bytes of r consumed so far = pulled by the buffer minus
			// what it still holds; the rest is what this block may use.
			remaining := total - (cr.n - int64(br.Buffered()))
			if err := precheckBlockSize(br, remaining); err != nil {
				return d.buffer(), err
			}
		}
		if err := d.readBlock(); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				err = fmt.Errorf("%w: truncated block", ErrBadTrace)
			}
			return d.buffer(), err
		}
	}
}

// slabSize skims r for the bounded count of the samples its valid
// blocks hold (countBlocks) and seeks it back to where it was. A stream
// that will not say where it is gets no count; one that cannot be put
// back is an error.
func slabSize(r io.ReadSeeker) (int, error) {
	at, err := r.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, nil
	}
	n, _ := countBlocks(bufio.NewReader(r), true) // the decoder finds, and reports, what stopped the skim
	_, err = r.Seek(at, io.SeekStart)
	return int(n), err
}

// ReadTraceStreamReports is ReadTraceStream for the benchmark harness,
// which pins this name; a stream carries no reports, so the list is
// always empty.
func ReadTraceStreamReports(r io.Reader) (*TraceBuffer, []string, error) {
	tb, err := ReadTraceStream(r)
	return tb, nil, err
}

// precheckBlockSize cross-checks the next block's header-declared
// extent against the bytes remaining in a sized stream, returning
// ErrCountMismatch when the header promises more than the stream
// holds. Short or implausible headers return nil — the parser's own
// error is more precise for those.
func precheckBlockSize(br *bufio.Reader, remaining int64) error {
	head, _ := br.Peek(v2HeaderLen)
	if len(head) < 4 {
		return nil
	}
	switch {
	case IsV2Block(head):
		if len(head) < v2HeaderLen {
			return nil
		}
		plen := binary.LittleEndian.Uint64(head[36:44])
		if plen <= maxV2Payload && v2HeaderLen+int64(plen) > remaining {
			return ErrCountMismatch
		}
	case bytes.Equal(head[:4], traceMagic[:]):
		if len(head) < 16 {
			return nil
		}
		ns := binary.LittleEndian.Uint64(head[8:16])
		// Minimum footprint past the records: the stack-table count and
		// the dropped counter, eight bytes each.
		if ns <= maxReasonable && 16+int64(ns)*sampleRecordLen+16 > remaining {
			return ErrCountMismatch
		}
	}
	return nil
}

// countingReader counts the bytes pulled from the underlying reader.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
