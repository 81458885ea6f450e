package ingest

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// The storage half of a run (the session half is session.go; the
// writer loop in run.go sits between them). A store owns everything a
// run keeps on disk — the per-thread trace files, the journal, the
// manifest (journal.go has the crash-safety protocol) — and is touched
// by the run's writer goroutine alone. It takes a batch and answers
// with one code per item, the group commit's outcome already applied;
// it sends nothing and books nothing, so it imports no net. A storage
// failure (ENOSPC, EIO) quarantines only the failing run: its store
// stops touching the disk and answers CodeStorage, every other run
// keeps flowing.

// logFile is one append-only file of a run: a thread's trace file or
// the journal.
type logFile struct {
	f     File
	size  int64 // byte length when opened, then kept current for a thread's file
	dirty bool  // written since the last sync
}

type store struct {
	id  string
	dir string
	fs  FS

	// The fsync policy, decided once at creation. A durable run is
	// synced before its acks whatever the daemon's policy says.
	syncBatch bool // every group commit syncs (durable run)
	syncSeals bool // thread seals, the BYE and a graceful close sync (every policy but never)
	everyN    int  // > 0: also sync once this many chunks have landed since the last

	files        map[int32]*logFile
	journal      logFile
	entry        []byte // the journal entry being written; reused
	journaledSeq uint64 // highest sequence appended to the journal
	chunksSince  int    // chunks since the last sync (every-N policy)

	// What the session reads: broken latches the quarantine (chunks are
	// refused at the door), syncedSeq is the highest sequence a
	// successful commit covered (a durable run's HELLO-ACK resumes there).
	broken        atomic.Bool
	syncedSeq     atomic.Uint64
	bytes         atomic.Uint64
	fsyncs        atomic.Uint64
	sealedThreads atomic.Int64

	errMu sync.Mutex
	errs  []error
}

func newStore(fs FS, id, dir string, durable bool, p FsyncPolicy) *store {
	st := &store{
		id:        id,
		dir:       dir,
		fs:        fs,
		syncBatch: durable,
		syncSeals: durable || p.Mode != FsyncNever,
		files:     make(map[int32]*logFile),
	}
	if p.Mode == FsyncEveryN {
		st.everyN = p.N
	}
	return st
}

// writeManifest atomically replaces the run's manifest.
func (st *store) writeManifest(m *Manifest) error { return writeManifest(st.fs, st.dir, m) }

// commit applies one batch — every block and journal entry written,
// then one sync per the policy, the group commit — and appends one ack
// code per item to res. Non-durable every-N cadence shares the sync
// point.
func (st *store) commit(batch []item, res []Code) []Code {
	for i := range batch {
		it := &batch[i]
		res = append(res, st.apply(it))
		if it.body != nil {
			frameBodies.Put(it.body) // written and checksummed, or refused: done with the bytes
		}
	}
	if !st.broken.Load() && (st.syncBatch || (st.everyN > 0 && st.chunksSince >= st.everyN)) {
		if err := st.sync(true, 0); err != nil {
			st.fail("sync", err)
		}
	}
	if !st.broken.Load() {
		st.syncedSeq.Store(st.journaledSeq)
		return res
	}
	if st.syncBatch {
		// The run broke somewhere in this batch — the group commit above,
		// or a seal/BYE's own sync inside apply. Durability was promised
		// and not delivered: downgrade every OK not covered by an earlier
		// successful sync to the typed storage code so the client keeps
		// exact accounting and does not trust unsynced data. (A run broken
		// before the batch started yields no OK, so this is a no-op then.)
		for i := range res {
			if seq := batch[i].seq; res[i] == CodeOK && (seq == 0 || seq > st.syncedSeq.Load()) {
				res[i] = CodeStorage
			}
		}
	}
	return res
}

// apply lands one item on disk and returns its ack code.
func (st *store) apply(it *item) Code {
	switch {
	case it.seal:
		st.sealedThreads.Add(1)
	case it.bye:
		// The BYE closes the run even when its storage is gone.
		defer st.closeFiles()
	}
	if st.broken.Load() {
		return CodeStorage
	}
	switch {
	case it.ackOnly:
		// The data item rode ahead of this marker in the same queue, so
		// the batch's group commit covers it.
		return CodeOK
	case it.bye:
		// The manifest seal that makes the run complete is the writer
		// loop's next step, over the books this batch's chunks have
		// settled into by then.
		return st.mark(journalEntry{Seq: it.seq, Kind: journalBye}, true, "bye")
	case it.seal:
		return st.applySeal(it)
	}
	return st.applyChunk(it)
}

// applyChunk appends the block to its thread file and journals it:
// block first, journal entry second, so the journal never describes
// bytes that are not on disk (recovery truncates the other way
// around).
func (st *store) applyChunk(it *item) Code {
	lf, ok := st.files[it.thread]
	if !ok {
		// Opened (and measured) on first touch.
		var err error
		if lf, err = st.open(fmt.Sprintf(traceNameFmt, it.thread)); err != nil {
			return st.fail(fmt.Sprintf("thread %d: open", it.thread), err)
		}
		st.files[it.thread] = lf
	}
	offset := lf.size
	if _, err := lf.f.Write(it.block); err != nil {
		// The write may have torn mid-block; whatever landed is beyond
		// the last journal entry and recovery truncates it away.
		return st.fail(fmt.Sprintf("thread %d: write", it.thread), err)
	}
	lf.size += int64(len(it.block))
	lf.dirty = true
	if err := st.journalAppend(journalEntry{
		Seq:     it.seq,
		Thread:  it.thread,
		Kind:    journalChunk,
		Offset:  uint64(offset),
		Length:  uint32(len(it.block)),
		Samples: it.samples,
		CRC:     crc32.ChecksumIEEE(it.block),
	}); err != nil {
		return st.fail("journal", err)
	}
	st.bytes.Add(uint64(len(it.block)))
	st.chunksSince++
	return CodeOK
}

// applySeal journals one thread's seal and closes its file.
func (st *store) applySeal(it *item) Code {
	e := journalEntry{Seq: it.seq, Thread: it.thread, Kind: journalSeal}
	if code := st.mark(e, false, fmt.Sprintf("thread %d: seal", it.thread)); code != CodeOK {
		return code
	}
	if lf, ok := st.files[it.thread]; ok {
		delete(st.files, it.thread)
		if err := lf.f.Close(); err != nil {
			return st.fail(fmt.Sprintf("thread %d: close", it.thread), err)
		}
	}
	return CodeOK
}

// mark journals a thread seal or the BYE. Both are durability points:
// under every policy except never, and always for a durable run, the
// sealed thread's file (for the BYE: every file) is synced.
func (st *store) mark(e journalEntry, all bool, what string) Code {
	if err := st.journalAppend(e); err != nil {
		return st.fail(what+": journal", err)
	}
	if st.syncSeals {
		if err := st.sync(all, e.Thread); err != nil {
			return st.fail(what+": sync", err)
		}
	}
	return CodeOK
}

// open opens name in the run directory for appending and measures it,
// so a recovered run continues at its true offsets.
func (st *store) open(name string) (*logFile, error) {
	path := filepath.Join(st.dir, name)
	f, err := st.fs.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	lf := &logFile{f: f}
	if fi, err := os.Stat(path); err == nil {
		lf.size = fi.Size()
	}
	return lf, nil
}

// journalAppend writes one entry (opening the journal lazily) with a
// single Write call.
func (st *store) journalAppend(e journalEntry) error {
	if st.journal.f == nil {
		lf, err := st.open(journalName)
		if err != nil {
			return err
		}
		if lf.size == 0 {
			if err := writeJournalHeader(lf.f); err != nil {
				lf.f.Close()
				return err
			}
		}
		st.journal = *lf
	}
	st.entry = appendJournalEntry(st.entry[:0], e)
	if _, err := st.journal.f.Write(st.entry); err != nil {
		return err
	}
	st.journal.dirty = true
	st.journaledSeq = max(st.journaledSeq, e.Seq)
	return nil
}

// sync makes durable what thread's file (every thread's, with all) and
// the journal have been handed since the last sync.
func (st *store) sync(all bool, thread int32) error {
	for th, lf := range st.files {
		if lf.dirty && (all || th == thread) {
			if err := st.syncFile(lf); err != nil {
				return err
			}
		}
	}
	if st.journal.dirty {
		if err := st.syncFile(&st.journal); err != nil {
			return err
		}
	}
	st.chunksSince = 0
	return nil
}

func (st *store) syncFile(lf *logFile) error {
	if err := lf.f.Sync(); err != nil {
		return err
	}
	st.fsyncs.Add(1)
	lf.dirty = false
	return nil
}

// flush is the graceful close's durability point: sync per the policy.
func (st *store) flush() {
	if !st.syncSeals {
		return
	}
	if err := st.sync(true, 0); err != nil {
		st.fail("close sync", err)
		return
	}
	st.syncedSeq.Store(st.journaledSeq)
}

// fail quarantines the run over one storage error: the store stops
// touching the disk, the session answers chunks with CodeStorage, and
// every other run keeps flowing.
func (st *store) fail(what string, err error) Code {
	st.broken.Store(true)
	st.recordErr(fmt.Errorf("ingest: run %s: %s: %w", st.id, what, err))
	st.closeFiles()
	return CodeStorage
}

func (st *store) recordErr(err error) {
	st.errMu.Lock()
	st.errs = append(st.errs, err)
	st.errMu.Unlock()
}

func (st *store) closeFiles() {
	for th, lf := range st.files {
		if err := lf.f.Close(); err != nil {
			st.recordErr(fmt.Errorf("ingest: run %s: thread %d: close: %w", st.id, th, err))
		}
		delete(st.files, th)
	}
	if st.journal.f != nil {
		if err := st.journal.f.Close(); err != nil {
			st.recordErr(fmt.Errorf("ingest: run %s: journal close: %w", st.id, err))
		}
		st.journal = logFile{}
	}
}
