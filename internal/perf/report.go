package perf

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Hang-report trace blocks: when the hang supervisor force-detaches
// the tool to salvage the trace, it appends the rendered hang report
// to each salvaged trace file as a PSXR block, so the diagnosis
// travels with the data it explains. The block is self-delimiting and
// interleaves with PSXT sample blocks in the same stream:
//
//	magic "PSXR", version uint32
//	length uint64, then length bytes of UTF-8 report text

var reportMagic = [4]byte{'P', 'S', 'X', 'R'}

const reportVersion = 1

// maxReportLen bounds a report block so a corrupt header cannot drive
// a huge allocation.
const maxReportLen = 1 << 22

// WriteHangReportBlock appends one hang-report block containing text.
func WriteHangReportBlock(w io.Writer, text string) error {
	var hdr [16]byte
	copy(hdr[:4], reportMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], reportVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(text)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, text)
	return err
}

// readHangReport consumes one PSXR block (magic included) from br.
func readHangReport(br *bufio.Reader) (string, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return "", fmt.Errorf("%w: truncated report header", ErrBadTrace)
	}
	if binary.LittleEndian.Uint32(hdr[4:8]) != reportVersion {
		return "", fmt.Errorf("%w: unknown report version", ErrBadTrace)
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	if n > maxReportLen {
		return "", fmt.Errorf("%w: oversized report block", ErrBadTrace)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", fmt.Errorf("%w: truncated report block", ErrBadTrace)
	}
	return string(buf), nil
}

// ReadTraceStreamReports reads a stream of concatenated trace blocks
// (v1 "PSXT" and v2 "PSX2" in any mix) and PSXR hang-report blocks,
// merging the samples like ReadTraceStream and collecting the report
// texts in stream order. The same salvage contract applies: on a torn
// stream the gap-free prefix (and any reports before the damage) is
// returned alongside an error wrapping ErrBadTrace.
//
// On sized streams (regular files, byte readers) each block's
// header-declared extent — sample count × record width for v1, the
// declared payload length for v2 — is cross-checked against the bytes
// actually remaining before the block is parsed. A final block whose
// header promises more than the stream holds is a torn tail: it
// reports the typed ErrCountMismatch instead of whatever the
// misaligned bytes happen to parse as (v1's untagged record array can
// otherwise misparse a forged count silently).
func ReadTraceStreamReports(r io.Reader) (*TraceBuffer, []string, error) {
	total, sized := streamRemaining(r)
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	d := &blockDecoder{br: br, dst: NewTraceBuffer(0, 0)}
	var reports []string
	for {
		head, err := br.Peek(4)
		if len(head) < 4 {
			if err == io.EOF {
				err = nil
				if len(head) > 0 {
					err = fmt.Errorf("%w: truncated block", ErrBadTrace)
				}
			}
			return d.dst, reports, err
		}
		if bytes.Equal(head, reportMagic[:]) {
			text, err := readHangReport(br)
			if err != nil {
				return d.dst, reports, err
			}
			reports = append(reports, text)
			continue
		}
		if sized {
			// Bytes of r consumed so far = pulled by the buffer minus
			// what it still holds; the rest is what this block may use.
			remaining := total - (cr.n - int64(br.Buffered()))
			if err := precheckBlockSize(br, remaining); err != nil {
				return d.dst, reports, err
			}
		}
		if err := d.readBlock(); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				err = fmt.Errorf("%w: truncated block", ErrBadTrace)
			}
			return d.dst, reports, err
		}
	}
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
