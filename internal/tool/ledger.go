package tool

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Each sink keeps one ledger: take books a chunk the sink has become
// answerable for, settle books where it ended up, and nothing else
// moves a sink counter. Report, the obs plane and the BYE frame read
// the ledgers; at Detach each one checks its own books (balance), so a
// code path that loses a chunk without settling it — or settles one
// twice — surfaces in StreamError in production, not only in a test
// that knows every sink.

// tally counts chunks and the samples inside them. Atomic because
// Report and the obs plane read while the sink goroutines settle.
type tally struct{ chunks, samples atomic.Uint64 }

func (t *tally) add(samples uint32) {
	t.chunks.Add(1)
	t.samples.Add(uint64(samples))
}

func (t *tally) load() (chunks, samples uint64) {
	return t.chunks.Load(), t.samples.Load()
}

// bucket names one terminal fate of a chunk.
type bucket int

const (
	// Network sink (netsink.go).
	shipped  bucket = iota // acked CodeOK straight from memory
	replayed               // acked CodeOK after the spill detour
	dropped                // never delivered: overflow, nack, corrupt spill entry, unflushed at stop
	storage                // refused INGEST_STORAGE: the daemon's disk failed, not the network
	// Streamer and file sink (stream.go).
	written   // on disk in the thread's local trace file
	discarded // given up on after retries and the stop-time recovery attempt
	forced    // dropped by the DropChunk fault-injection hook
	passed    // no file sink configured: the network sink's ledger answers for it
	numBuckets
)

var bucketNames = [numBuckets]string{
	"shipped", "replayed", "dropped", "storage",
	"written", "discarded", "forced", "passed",
}

// ledger is one sink's books.
type ledger struct {
	name    string   // what taken counts, e.g. "ingest produced"
	buckets []bucket // the fates this sink can settle into
	taken   tally
	settled [numBuckets]tally
	// held reports chunks taken and deliberately still kept when the
	// books are checked (the spill backlog on disk); nil means none.
	held func() (chunks, samples uint64)
}

func (l *ledger) take(samples uint32)             { l.taken.add(samples) }
func (l *ledger) settle(b bucket, samples uint32) { l.settled[b].add(samples) }

// balance checks conservation — taken == Σ settled + held, in chunks
// and in samples — and returns an error naming every bucket when the
// books do not close. Call it once the sink's goroutines have stopped.
func (l *ledger) balance() error {
	chunks, samples := l.taken.load()
	var sumC, sumS uint64
	var parts []string
	for _, b := range l.buckets {
		c, s := l.settled[b].load()
		sumC, sumS = sumC+c, sumS+s
		parts = append(parts, fmt.Sprintf("%s %d (%d)", bucketNames[b], c, s))
	}
	if l.held != nil {
		c, s := l.held()
		sumC, sumS = sumC+c, sumS+s
		parts = append(parts, fmt.Sprintf("held %d (%d)", c, s))
	}
	if sumC == chunks && sumS == samples {
		return nil
	}
	return fmt.Errorf("tool: ledger out of balance: %s %d chunks (%d samples) != %s",
		l.name, chunks, samples, strings.Join(parts, " + "))
}
