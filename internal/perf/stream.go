package perf

import (
	"bufio"
	"io"
)

// ReadTraceStream reads a concatenation of trace blocks (as produced
// by the streaming storage: one block per sealed chunk plus a final
// residue block; v1 "PSXT" and v2 "PSX2" in any mix) until EOF and
// merges them into one Trace. A stream holds sample blocks and nothing
// else: the diagnosis of a hung run is a file beside the traces
// (HangReport).
//
// The Trace holds every sample in one slab, which its Samples hands
// out without a copy (read-only), and each distinct call path once:
// the stack IDs are the Trace's own, so two blocks that carried the
// same path give their samples the same ID. It is never nil, whatever
// the error.
//
// A truncated or corrupt stream — a trace file torn by a mid-write
// failure or an interrupted run — does not void the data before the
// damage: the merged gap-free prefix of complete blocks is returned
// alongside a non-nil error wrapping ErrBadTrace, so readers can
// salvage a partial trace while still reporting the damage. Blocks are
// written in append order, so the prefix has no holes.
//
// When r can also seek (a regular file, a byte reader), it is skimmed
// first, as CountStreamSamples walks it, and the skim decides the
// prefix: the decoder commits at most the blocks the skim accepted and
// then returns what stopped the skim. A last block whose header parses
// but whose body runs past the end of the stream is therefore the typed
// ErrCountMismatch rather than whatever its misaligned bytes would parse
// as, and a file that grows while it is read is read as it stood at the
// skim. The skim's count sizes the slab; a block adds at most one sample
// per bit it holds to that count, whatever its header declares, so the
// slab is never larger than the stream's bytes allow. Other streams are
// decoded to their end, the slab growing as their blocks commit.
func ReadTraceStream(r io.Reader) (*Trace, error) {
	blocks, n := -1, uint64(0) // unskimmed: decode to the end
	var skimErr error
	if rs, ok := r.(io.ReadSeeker); ok {
		if at, err := rs.Seek(0, io.SeekCurrent); err == nil {
			n, blocks, skimErr = skim(bufio.NewReader(rs), true)
			if _, err := rs.Seek(at, io.SeekStart); err != nil {
				return newBlockDecoder(nil, 0).trace(), err
			}
		}
	}
	d := newBlockDecoder(bufio.NewReader(r), int(n))
	for ; blocks != 0; blocks-- {
		if more, err := nextBlock(d.br); !more {
			return d.trace(), err
		}
		if err := d.readBlock(); err != nil {
			return d.trace(), err
		}
	}
	return d.trace(), skimErr
}

// ReadTraceStreamReports is ReadTraceStream for the benchmark harness,
// which pins this name; a stream carries no reports, so the list is
// always empty.
func ReadTraceStreamReports(r io.Reader) (*Trace, []string, error) {
	tr, err := ReadTraceStream(r)
	return tr, nil, err
}
