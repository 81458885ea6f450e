package ingest

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// item is one unit of ingest work handed to a run's writer goroutine.
type item struct {
	seq     uint64
	thread  int32
	samples uint32
	block   []byte
	seal    bool
	bye     bool

	// body, on a chunk, is the pooled frame body block aliases. It
	// travels with the item: the store puts it back once the block is
	// written and checksummed.
	body *[]byte

	// loss is the client's final loss accounting carried on a BYE.
	loss ClientLoss

	// ackOnly marks a durable-mode duplicate whose data item is already
	// ahead in the queue: nothing to write, but the ack must still wait
	// for the group commit that covers it.
	ackOnly bool

	// sender is the connection the frame came in on; a durable run's
	// writer acks through it (a non-durable run's session already has).
	sender *connSender
}

func (it *item) chunk() bool { return !it.seal && !it.bye && !it.ackOnly }

// The buckets of a run's ledger. Every chunk frame that passes decode
// and the sample-count cross-check is taken, and settled exactly once:
// by admit when the writer never gets it, by commitBatch when it does.
const (
	committed Bucket = iota // written and journaled (a durable run's: synced too); acked OK
	storage                 // refused at the door of a quarantined run, or lost to the failure; INGEST_STORAGE
	shed                    // queue still full after the backpressure window; INGEST_OVERLOADED
	duplicate               // a resend of a sequence already accepted; acked OK, not applied again
	refused                 // sent after the BYE or to a run the GC took; INGEST_SEALED
)

// Unstored is what closing the books across the wire at BYE left over:
//
//	ClientProduced − ClientDropped == committed + Storage + Unaccounted
//
// The left side is what the client counts handed over and answered;
// Unaccounted is zero whenever this incarnation of the run answered
// every data frame. A nil *Unstored stands for both fields zero.
type Unstored struct {
	Storage     uint64 `json:"storage_chunks"`
	Unaccounted int64  `json:"unaccounted_chunks"`
}

func (u Unstored) String() string {
	return fmt.Sprintf("%d chunks the client counts delivered are not in storage: %d refused INGEST_STORAGE, %d unaccounted",
		int64(u.Storage)+u.Unaccounted, u.Storage, u.Unaccounted)
}

// run is one instrumented process's registry entry and ingest shard:
// the session state its connection handlers sequence frames against,
// the store its writer goroutine commits to, and the ledger between.
type run struct {
	id      string
	host    string
	pid     uint64
	started time.Time
	durable bool // client negotiated FlagDurable at run creation

	s   *Server
	st  *store
	led *Ledger

	q    chan item     // nil once closed
	wake chan struct{} // a session let go of seqMu on a sealed run (wakeIfSealed)
	wg   sync.WaitGroup
	res  []Code // the writer's per-batch results; reused like its batch

	// seqMu serializes admit (ledger entry + duplicate check + enqueue +
	// sequence advance) when several connections carry one run, and
	// guards q, gone and retired against the writer, the GC and Close.
	seqMu   sync.Mutex
	gone    bool          // GC removed the run; nothing may enqueue
	retired bool          // sealed with nothing left to write: the queue is closed, the writer gone
	lastSeq atomic.Uint64 // highest accepted data-frame sequence

	lastSeen atomic.Int64 // unix nanos of the last frame
	complete atomic.Bool  // BYE processed
	salvaged bool         // recovered from journal by a restarted daemon

	// client is the BYE's loss accounting, with what reconciling it left
	// over. Never nil; all zero for runs whose BYE never arrived.
	client atomic.Pointer[ClientLoss]
}

// newRun builds a registry entry (not yet started). Callers hold s.mu
// or are in single-threaded startup.
func (s *Server) newRun(id, host string, pid uint64, durable bool) *run {
	r := &run{
		id:      id,
		host:    host,
		pid:     pid,
		started: time.Now(),
		durable: durable,
		s:       s,
		st:      newStore(s.opts.FS, id, filepath.Join(s.opts.Dir, id), durable, s.opts.Fsync),
		led:     NewLedger("run "+id+" took", "committed", "storage", "shed", "duplicate", "refused"),
		q:       make(chan item, s.opts.QueueDepth),
		wake:    make(chan struct{}, 1),
	}
	r.lastSeen.Store(time.Now().UnixNano())
	r.client.Store(&ClientLoss{})
	return r
}

// start launches the run's writer goroutine; a run recovered sealed
// needs none, and is retired from the start.
func (r *run) start() {
	if r.complete.Load() {
		r.retired, r.q = true, nil
		return
	}
	r.wg.Add(1)
	go r.writer(r.q)
}

// writer is the run's ingest goroutine, the loop between the halves
// and the only toucher of the store: it drains the queue q in
// group-commit batches of at most maxBatch, until the queue is closed —
// at Close, by the GC, or by the writer itself once the run is sealed
// (retire).
func (r *run) writer(q chan item) {
	defer r.wg.Done()
	var batch []item // reused batch after batch: commitBatch clears what it holds
	for {
		select {
		case it, ok := <-q:
			if !ok {
				r.finish()
				return
			}
			batch = append(batch[:0], it)
			// The writer is the queue's only receiver, so what len reports
			// is there to take without waiting (a closed queue still hands
			// out what it buffered, and then ends the loop above).
			for len(batch) < maxBatch && len(q) > 0 {
				batch = append(batch, <-q)
			}
			r.commitBatch(batch)
		case <-r.wake:
		case <-r.s.deadCh:
			return // simulated crash: abandon everything as-is
		}
		// Only try the lock: a session holding it may be waiting for room
		// in this queue. Whoever holds it wakes the writer to try again
		// once it lets go (wakeIfSealed).
		if r.complete.Load() && r.seqMu.TryLock() {
			r.retire()
			r.seqMu.Unlock()
		}
	}
}

// retire closes the queue of a sealed run that holds nothing, which
// ends the writer: everything the run accepted is committed (and, on a
// durable run, synced), so sequence answers the rest without a writer.
// A quarantined run keeps its writer: on a durable one, a resend of a
// sequence its failed sync lost still has to be answered
// INGEST_STORAGE, which the writer does. Callers hold seqMu, and only
// the writer calls it, between batches.
func (r *run) retire() {
	if r.q != nil && len(r.q) == 0 && !r.st.broken.Load() {
		r.retired = true
		r.closeQueue()
	}
}

// wakeIfSealed wakes the writer of a sealed run to try retiring it
// again. A session calls it after letting go of seqMu, which the
// writer may have found taken.
func (r *run) wakeIfSealed() {
	if r.complete.Load() {
		select {
		case r.wake <- struct{}{}:
		default: // a wake is already pending
		}
	}
}

// closeQueue closes the run's queue, if it is still open, and drops it.
// Callers hold seqMu.
func (r *run) closeQueue() {
	if r.q != nil {
		close(r.q)
		r.q = nil
	}
}

// commitBatch takes one batch through: the store commits it, every
// chunk settles by the code the group commit left it with (a chunk a
// failed sync downgraded is storage and only storage), a BYE seals the
// run over the books as they then stand, and last a durable run's
// deferred acks are released.
func (r *run) commitBatch(batch []item) {
	defer clear(batch)
	r.res = r.st.commit(batch, r.res[:0])
	for i := range batch {
		it := &batch[i]
		switch {
		case it.chunk():
			fate := committed
			if r.res[i] != CodeOK {
				fate = storage
			}
			r.led.Settle(fate, it.samples)
		case it.bye:
			r.seal(it.loss)
		}
	}
	if r.durable {
		// (After Kill the sender sends nothing: a daemon that crashed
		// between commit and ack leaves the client to resend.)
		for i := range batch {
			batch[i].sender.sendAck(Ack{Seq: batch[i].seq, Code: r.res[i]})
		}
	}
}

// seal completes the run on its BYE: the client's count is reconciled
// against the ledger and the manifest committed atomically. After it
// the run's directory is a finished artifact the GC may reclaim. A
// quarantined run is sealed all the same — complete, so this
// incarnation refuses further data — under the manifest's Quarantined
// marker (see Manifest), and the BYE's typed ack tells the client its
// seal was not made durable.
func (r *run) seal(loss ClientLoss) {
	r.reconcile(loss)
	// The atomic manifest seal is the run's commit point: after the
	// rename, recovery trusts the manifest; before it, the journal.
	if err := r.st.writeManifest(r.manifest(true)); err != nil {
		r.st.recordErr(fmt.Errorf("ingest: run %s: manifest seal: %w", r.id, err))
	}
	r.complete.Store(true)
}

// reconcile closes the books across the wire (see Unstored) and keeps
// the BYE's accounting with the remainder stamped in.
func (r *run) reconcile(loss ClientLoss) {
	done, _ := r.led.Settled(committed)
	lost, _ := r.led.Settled(storage)
	u := Unstored{Storage: lost, Unaccounted: int64(loss.ClientProduced-loss.ClientDropped) - int64(done+lost)}
	if loss.Unstored = nil; u != (Unstored{}) {
		loss.Unstored = &u
	}
	r.client.Store(&loss)
}

// finish runs when the queue closes — at graceful shutdown, at GC, or
// at retirement: sync per policy, close everything, and leave a
// manifest carrying the run's identity and progress (Complete only if
// BYE landed) for the next daemon. The queue is drained and no session
// can reach it, so every chunk ever taken must have settled: check the
// books.
func (r *run) finish() {
	if !r.st.broken.Load() && !r.complete.Load() {
		r.st.flush()
		r.st.writeManifest(r.manifest(false))
	}
	r.st.closeFiles()
	r.seqMu.Lock() // a session refusing a late chunk books it in two steps
	err := r.led.Balance()
	r.seqMu.Unlock()
	if err != nil {
		r.st.recordErr(fmt.Errorf("ingest: %w", err))
	}
}

// manifest renders the run's current registry state for the on-disk
// manifest.
func (r *run) manifest(complete bool) *Manifest {
	chunks, samples := r.led.Settled(committed)
	return &Manifest{
		ID:            r.id,
		Host:          r.host,
		PID:           r.pid,
		Started:       r.started,
		Durable:       r.durable,
		Fsync:         r.s.opts.Fsync.String(),
		Complete:      complete,
		Salvaged:      r.salvaged,
		Quarantined:   r.st.broken.Load(),
		LastSeq:       r.lastSeq.Load(),
		Chunks:        chunks,
		Samples:       samples,
		Bytes:         r.st.bytes.Load(),
		SealedThreads: r.st.sealedThreads.Load(),
		ClientLoss:    *r.client.Load(),
	}
}

// RunInfo is one run's registry snapshot, served at /runs.
type RunInfo struct {
	ID             string    `json:"id"`
	Host           string    `json:"host,omitempty"`
	PID            uint64    `json:"pid,omitempty"`
	Dir            string    `json:"dir"`
	Started        time.Time `json:"started"`
	LastSeenSec    float64   `json:"last_seen_sec"`
	Complete       bool      `json:"complete"`
	Durable        bool      `json:"durable,omitempty"`
	Salvaged       bool      `json:"salvaged,omitempty"`
	Quarantined    bool      `json:"quarantined,omitempty"`
	LastSeq        uint64    `json:"last_seq"`
	DurableSeq     uint64    `json:"durable_seq,omitempty"`
	SealedThreads  int64     `json:"sealed_threads"`
	Chunks         uint64    `json:"chunks"`
	Samples        uint64    `json:"samples"`
	Bytes          uint64    `json:"bytes"`
	DroppedChunks  uint64    `json:"dropped_chunks"`
	DroppedSamples uint64    `json:"dropped_samples"`
	StorageChunks  uint64    `json:"storage_chunks,omitempty"`
	StorageSamples uint64    `json:"storage_samples,omitempty"`
	Fsyncs         uint64    `json:"fsyncs,omitempty"`

	// Client-reported loss accounting from the run's BYE (zero until
	// the run completes).
	ClientLoss

	// The two ledger buckets no older key shows.
	DuplicateChunks uint64 `json:"duplicate_chunks,omitempty"`
	RefusedChunks   uint64 `json:"refused_chunks,omitempty"`
}

// info snapshots the run for /runs; every tally is the ledger's.
func (r *run) info(now time.Time) RunInfo {
	ri := RunInfo{
		ID:            r.id,
		Host:          r.host,
		PID:           r.pid,
		Dir:           r.st.dir,
		Started:       r.started,
		LastSeenSec:   now.Sub(time.Unix(0, r.lastSeen.Load())).Seconds(),
		Complete:      r.complete.Load(),
		Durable:       r.durable,
		Salvaged:      r.salvaged,
		Quarantined:   r.st.broken.Load(),
		LastSeq:       r.lastSeq.Load(),
		DurableSeq:    r.st.syncedSeq.Load(),
		SealedThreads: r.st.sealedThreads.Load(),
		Bytes:         r.st.bytes.Load(),
		Fsyncs:        r.st.fsyncs.Load(),
		ClientLoss:    *r.client.Load(),
	}
	ri.Chunks, ri.Samples = r.led.Settled(committed)
	ri.DroppedChunks, ri.DroppedSamples = r.led.Settled(shed)
	ri.StorageChunks, ri.StorageSamples = r.led.Settled(storage)
	ri.DuplicateChunks, _ = r.led.Settled(duplicate)
	ri.RefusedChunks, _ = r.led.Settled(refused)
	return ri
}
