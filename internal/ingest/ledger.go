package ingest

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// A Ledger is the books one stage of the pipeline keeps on the chunks
// it has become answerable for: Take books a chunk in, Settle books
// the one bucket it ended up in, and nothing else moves a counter of
// that stage. The client's sinks (internal/tool) and every psxd run
// keep one each — the BYE frame is the client ledger's wire form, so
// the type lives beside the wire — and each checks its own books
// (Balance) once its goroutines have stopped, so a code path that
// loses a chunk unsettled, or settles one twice, surfaces in
// production and not only in a test that knows every path.
type Ledger struct {
	name    string   // what taken counts, e.g. "ingest produced"
	buckets []string // the fates this stage can settle into
	taken   tally
	settled []tally

	// Held reports chunks taken and deliberately still kept when the
	// books are checked (the client's spill backlog on disk); nil means
	// none.
	Held func() (chunks, samples uint64)
}

// Bucket indexes one fate among the names its ledger was made with.
type Bucket int

// tally counts chunks and the samples inside them. Atomic because
// reports and the obs planes read while the owning goroutines settle.
type tally struct{ chunks, samples atomic.Uint64 }

func (t *tally) add(chunks, samples uint64) {
	t.chunks.Add(chunks)
	t.samples.Add(samples)
}

func (t *tally) load() (chunks, samples uint64) { return t.chunks.Load(), t.samples.Load() }

// NewLedger makes the books for a stage that settles into buckets.
func NewLedger(name string, buckets ...string) *Ledger {
	return &Ledger{name: name, buckets: buckets, settled: make([]tally, len(buckets))}
}

func (l *Ledger) Take(samples uint32)             { l.taken.add(1, uint64(samples)) }
func (l *Ledger) Settle(b Bucket, samples uint32) { l.settled[b].add(1, uint64(samples)) }

// Restore books chunks that an earlier incarnation took and settled
// into b — startup recovery reading them back from disk — on both
// sides at once, so the books it leaves are closed.
func (l *Ledger) Restore(b Bucket, chunks, samples uint64) {
	l.taken.add(chunks, samples)
	l.settled[b].add(chunks, samples)
}

func (l *Ledger) Taken() (chunks, samples uint64)           { return l.taken.load() }
func (l *Ledger) Settled(b Bucket) (chunks, samples uint64) { return l.settled[b].load() }

// Balance checks conservation — taken == Σ settled + held, in chunks
// and in samples — and returns an error naming every bucket when the
// books do not close. Call it once the stage's goroutines have stopped.
func (l *Ledger) Balance() error {
	chunks, samples := l.taken.load()
	var sumC, sumS uint64
	var parts []string
	for b, name := range l.buckets {
		c, s := l.settled[b].load()
		sumC, sumS = sumC+c, sumS+s
		parts = append(parts, fmt.Sprintf("%s %d (%d)", name, c, s))
	}
	if l.Held != nil {
		c, s := l.Held()
		sumC, sumS = sumC+c, sumS+s
		parts = append(parts, fmt.Sprintf("held %d (%d)", c, s))
	}
	if sumC == chunks && sumS == samples {
		return nil
	}
	return fmt.Errorf("ledger out of balance: %s %d chunks (%d samples) != %s",
		l.name, chunks, samples, strings.Join(parts, " + "))
}
