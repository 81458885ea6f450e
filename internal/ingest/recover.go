package ingest

import (
	"fmt"
	"os"
	"path/filepath"
)

// Startup recovery: a restarted daemon must be transparent to a
// reconnecting netsink. Before accepting, the server walks its data
// dir and rebuilds the registry from disk:
//
//   - A run whose manifest says Complete is re-registered as-is — the
//     atomic manifest seal is trusted over everything else — unless
//     the seal also carries the Quarantined marker (the run's storage
//     failed before the BYE), in which case the journal stays
//     authoritative and the run is re-validated like any torn run.
//   - Otherwise the journal is authoritative: it is replayed entry by
//     entry, each chunk entry checked against the data file (the bytes
//     must exist and their CRC must match). The first failure marks
//     the crash point; the journal and every trace file are truncated
//     back to exactly what the valid prefix describes. The recovered
//     lastSeq is what HELLO-ACK hands a reconnecting client, so the
//     client resends precisely the tail that never reached disk.
//     A missing journal is an empty one — the run crashed between
//     its HELLO stamp and its first journal entry, so every trace byte
//     in the directory is an unacknowledged tail and goes; the client
//     is handed LastSeq 0 and resends from the start.
//   - A directory with neither manifest nor journal is not this
//     daemon's: it is left untouched and unregistered.
//
// Every run recovered without a clean Complete manifest is marked
// salvaged — in the registry, the manifest, and the obs plane.

// recoverRuns scans opts.Dir and registers every run left behind by a
// previous daemon. Called from ServeListener before the accept loop
// starts, so no lock is needed.
func (s *Server) recoverRuns() error {
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("ingest: recovery scan: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		r, err := s.recoverRun(id, filepath.Join(s.opts.Dir, id))
		if err != nil {
			return fmt.Errorf("ingest: recover run %s: %w", id, err)
		}
		if r == nil {
			continue
		}
		s.recoveredRuns.Add(1)
		if r.salvaged {
			s.salvagedRuns.Add(1)
		}
		r.start()
		s.runs[id] = r
	}
	return nil
}

// recoverRun rebuilds one run's registry entry from its directory, or
// returns nil for a directory psxd never stamped.
func (s *Server) recoverRun(id, dir string) (*run, error) {
	m, _ := ReadManifest(dir)
	if m != nil && m.Complete && !m.Quarantined {
		r := s.recoveredEntry(id, dir, m)
		r.salvaged = m.Salvaged
		r.lastSeq.Store(m.LastSeq)
		r.st.syncedSeq.Store(m.LastSeq)
		r.led.Restore(committed, m.Chunks, m.Samples)
		r.st.bytes.Store(m.Bytes)
		r.st.sealedThreads.Store(m.SealedThreads)
		r.complete.Store(true)
		return r, nil
	}
	jpath := filepath.Join(dir, journalName)
	if m == nil {
		if _, err := os.Stat(jpath); os.IsNotExist(err) {
			return nil, nil
		} else if err != nil {
			return nil, err
		}
	}
	return s.recoverJournaled(id, dir, jpath, m)
}

// recoveredEntry builds a run with its manifest's identity (or
// defaults when none survived) and empty books.
func (s *Server) recoveredEntry(id, dir string, m *Manifest) *run {
	if m == nil {
		r := s.newRun(id, "", 0, false)
		if st, err := os.Stat(dir); err == nil {
			r.started = st.ModTime()
		}
		return r
	}
	r := s.newRun(id, m.Host, m.PID, m.Durable)
	if !m.Started.IsZero() {
		r.started = m.Started
	}
	r.client.Store(&m.ClientLoss)
	return r
}

// recoverJournaled replays the journal against the data files and
// truncates both back to the longest mutually consistent prefix.
func (s *Server) recoverJournaled(id, dir, jpath string, m *Manifest) (*run, error) {
	entries, _, err := replayJournal(jpath)
	if err != nil {
		return nil, err
	}
	r := s.recoveredEntry(id, dir, m)
	r.salvaged = true
	valid, extent := r.replay(entries)
	if err := truncateRun(dir, jpath, journalHeaderLen+int64(valid)*journalEntryLen, extent); err != nil {
		return nil, err
	}
	if m != nil && m.Complete {
		// A quarantined seal: the BYE happened (the manifest's rename is
		// proof), only its durability is suspect. The truncation restored
		// the journal-backed truth, and the run stays complete — readable,
		// resealable, and reclaimable. Its books are closed again over
		// what survived: the storage and shed tallies of the incarnation
		// that broke were in memory only, so what it lost now shows as
		// unaccounted.
		r.complete.Store(true)
		r.reconcile(m.ClientLoss)
	}
	// Rewrite the manifest to match the recovered truth (including a
	// BYE whose manifest seal the crash interrupted: that one carries no
	// client count to reconcile against).
	if err := r.st.writeManifest(r.manifest(r.complete.Load())); err != nil {
		return nil, err
	}
	return r, nil
}

// replay checks the journal's entries against the data files and books
// the valid prefix into r (its chunks restored to the ledger as
// committed, its last sequence the resume point). It returns how many
// entries that prefix has and the data it covers per thread. A file
// that is gone, a torn data write and a block corrupted on disk are
// one boundary: that entry and everything after it is invalid.
func (r *run) replay(entries []journalEntry) (valid int, extent map[int32]int64) {
	open := make(map[int32]*os.File)
	defer func() {
		for _, f := range open {
			f.Close()
		}
	}()
	intact := func(e journalEntry) bool {
		f, ok := open[e.Thread]
		if !ok {
			var err error
			if f, err = os.Open(filepath.Join(r.st.dir, fmt.Sprintf(traceNameFmt, e.Thread))); err != nil {
				return false
			}
			open[e.Thread] = f
		}
		crc, err := crcFileSegment(f, int64(e.Offset), int64(e.Length))
		return err == nil && crc == e.CRC
	}
	extent = make(map[int32]int64)
	var lastSeq uint64
scan:
	for _, e := range entries {
		switch e.Kind {
		case journalChunk:
			if !intact(e) {
				break scan
			}
			extent[e.Thread] = max(extent[e.Thread], int64(e.Offset)+int64(e.Length))
			r.led.Restore(committed, 1, uint64(e.Samples))
			r.st.bytes.Add(uint64(e.Length))
		case journalSeal:
			r.st.sealedThreads.Add(1)
		case journalBye:
			r.complete.Store(true)
		}
		lastSeq = max(lastSeq, e.Seq)
		valid++
	}
	r.lastSeq.Store(lastSeq)
	r.st.journaledSeq = lastSeq
	r.st.syncedSeq.Store(lastSeq)
	return valid, extent
}

// truncateRun cuts the journal to its validated prefix, then every
// trace file to exactly the bytes the surviving journal describes. A
// file the journal never mentions is an unacked tail in its entirety.
func truncateRun(dir, jpath string, validJournal int64, extent map[int32]int64) error {
	if st, err := os.Stat(jpath); err == nil && st.Size() > validJournal {
		if err := os.Truncate(jpath, validJournal); err != nil {
			return err
		}
	}
	traceFiles, _ := filepath.Glob(filepath.Join(dir, "trace.*.psxt"))
	for _, path := range traceFiles {
		var th int32
		if _, err := fmt.Sscanf(filepath.Base(path), traceNameFmt, &th); err != nil {
			continue
		}
		want := extent[th]
		if st, err := os.Stat(path); err != nil || st.Size() <= want {
			continue
		}
		var err error
		if want == 0 {
			err = os.Remove(path)
		} else {
			err = os.Truncate(path, want)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// RecoverySummary describes what startup recovery found, for the
// daemon's log line.
type RecoverySummary struct {
	Runs     int
	Salvaged int
}

// Recovered reports how many runs startup recovery re-registered and
// how many of them needed journal salvage.
func (s *Server) Recovered() RecoverySummary {
	return RecoverySummary{
		Runs:     int(s.recoveredRuns.Load()),
		Salvaged: int(s.salvagedRuns.Load()),
	}
}
