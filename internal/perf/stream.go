package perf

import "io"

// ReadTraceStream reads a concatenation of trace blocks (as produced
// by the streaming storage: one block per sealed chunk plus a final
// residue block; v1 "PSXT" and v2 "PSX2" in any mix) until EOF and
// merges them into one Trace. A stream holds sample blocks and nothing
// else: the diagnosis of a hung run is a file beside the traces
// (HangReport).
//
// It is a TraceReader's blocks collected: the reader stages each block
// and the Trace keeps what the blocks that staged whole made. The Trace
// holds every sample in one slab, which its Samples hands out without a
// copy (read-only), and each distinct call path once: the stack IDs are
// the Trace's own, so two blocks that carried the same path give their
// samples the same ID. It is never nil, whatever the error.
//
// A truncated or corrupt stream — a trace file torn by a mid-write
// failure or an interrupted run — does not void the data before the
// damage: the merged gap-free prefix of complete blocks is returned
// alongside a non-nil error wrapping ErrBadTrace, so readers can
// salvage a partial trace while still reporting the damage. Blocks are
// written in append order, so the prefix has no holes. A stream the
// reader skims (one that can seek) is read as the skim found it, its
// torn tail ErrCountMismatch, and the skim's count sizes the slab; a
// block adds at most one sample per bit it holds to that count, whatever
// its header declares, so the slab is never larger than the stream's
// bytes allow. Other streams are decoded to their end, the slab growing
// as their blocks commit.
func ReadTraceStream(r io.Reader) (*Trace, error) {
	tr := NewTraceReader(r)
	b := traceBuilder{slab: make([]Sample, 0, tr.Bound())}
	for tr.Next() {
		b.commit(tr)
	}
	return b.trace(), tr.Err()
}

// ReadTraceStreamReports is ReadTraceStream for the benchmark harness,
// which pins this name; a stream carries no reports, so the list is
// always empty.
func ReadTraceStreamReports(r io.Reader) (*Trace, []string, error) {
	tr, err := ReadTraceStream(r)
	return tr, nil, err
}
