package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Startup recovery: a restarted daemon must be transparent to a
// reconnecting netsink. Before listening, the server walks its data
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
// previous daemon. Called from Serve before the listener opens, so no
// lock is needed.
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

// recoveredEntry builds a run from its manifest identity (or defaults
// when none survived).
func (s *Server) recoveredEntry(id, dir string, m *Manifest) *run {
	var r *run
	if m != nil {
		r = s.newRun(id, m.Host, m.PID, m.Durable)
		if !m.Started.IsZero() {
			r.started = m.Started
		}
		r.salvaged = m.Salvaged
		r.lastSeq.Store(m.LastSeq)
		r.durableSeq.Store(m.LastSeq)
		r.chunks.Store(m.Chunks)
		r.samples.Store(m.Samples)
		r.bytes.Store(m.Bytes)
		r.sealedThreads.Store(m.SealedThreads)
		r.client.Store(&m.ClientLoss)
	} else {
		r = s.newRun(id, "", 0, false)
		if st, err := os.Stat(dir); err == nil {
			r.started = st.ModTime()
		}
	}
	return r
}

// recoverJournaled replays the journal against the data files and
// truncates both back to the longest mutually consistent prefix.
func (s *Server) recoverJournaled(id, dir, jpath string, m *Manifest) (*run, error) {
	entries, _, err := replayJournal(jpath)
	if err != nil {
		return nil, err
	}
	open := make(map[int32]*os.File)
	defer func() {
		for _, f := range open {
			f.Close()
		}
	}()
	fileFor := func(thread int32) (*os.File, int64, error) {
		if f, ok := open[thread]; ok {
			st, err := f.Stat()
			if err != nil {
				return nil, 0, err
			}
			return f, st.Size(), nil
		}
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf("trace.%d.psxt", thread)))
		if err != nil {
			return nil, 0, err
		}
		open[thread] = f
		st, err := f.Stat()
		if err != nil {
			return nil, 0, err
		}
		return f, st.Size(), nil
	}

	extent := make(map[int32]int64) // valid data coverage per thread
	var (
		lastSeq  uint64
		sealed   int64
		complete bool
		chunks   uint64
		samples  uint64
		bytes    uint64
	)
	validJournal := int64(journalHeaderLen)
	for _, e := range entries {
		if e.Kind == journalChunk {
			f, size, err := fileFor(e.Thread)
			if err != nil {
				break // file gone or unreadable: the journal ends here
			}
			end := int64(e.Offset) + int64(e.Length)
			if size < end {
				break // torn data write: this entry and everything after is invalid
			}
			crc, err := crcFileSegment(f, int64(e.Offset), int64(e.Length))
			if err != nil || crc != e.CRC {
				break // block corrupted on disk: same boundary
			}
			if end > extent[e.Thread] {
				extent[e.Thread] = end
			}
			chunks++
			samples += uint64(e.Samples)
			bytes += uint64(e.Length)
		} else {
			if e.Kind == journalSeal {
				sealed++
			}
			if e.Kind == journalBye {
				complete = true
			}
		}
		if e.Seq > lastSeq {
			lastSeq = e.Seq
		}
		validJournal += journalEntryLen
	}
	for _, f := range open {
		f.Close()
	}
	clear(open)
	if m != nil && m.Complete {
		// A quarantined seal: the BYE happened (the manifest's rename is
		// proof), only its durability is suspect. The truncation below
		// restores the journal-backed truth, and the run stays complete —
		// readable, resealable, and reclaimable.
		complete = true
	}

	// Truncate the journal to its validated prefix, then every trace
	// file to exactly the bytes the surviving journal describes. A file
	// the journal never mentions is an unacked tail in its entirety.
	if st, err := os.Stat(jpath); err == nil && st.Size() > validJournal {
		if err := os.Truncate(jpath, validJournal); err != nil {
			return nil, err
		}
	}
	traceFiles, _ := filepath.Glob(filepath.Join(dir, "trace.*.psxt"))
	for _, path := range traceFiles {
		th, ok := threadOfTraceFile(path)
		if !ok {
			continue
		}
		want := extent[th]
		st, err := os.Stat(path)
		if err != nil {
			continue
		}
		if st.Size() <= want {
			continue
		}
		if want == 0 {
			if err := os.Remove(path); err != nil {
				return nil, err
			}
			continue
		}
		if err := os.Truncate(path, want); err != nil {
			return nil, err
		}
	}

	r := s.recoveredEntry(id, dir, m)
	r.salvaged = true
	r.lastSeq.Store(lastSeq)
	r.durableSeq.Store(lastSeq)
	r.chunks.Store(chunks)
	r.samples.Store(samples)
	r.bytes.Store(bytes)
	r.sealedThreads.Store(sealed)
	r.complete.Store(complete)
	// Rewrite the manifest to match the recovered truth (including a
	// BYE whose manifest seal the crash interrupted).
	if err := writeManifest(s.fs, dir, r.manifest(complete)); err != nil {
		return nil, err
	}
	return r, nil
}

// threadOfTraceFile parses N out of ".../trace.N.psxt".
func threadOfTraceFile(path string) (int32, bool) {
	name := filepath.Base(path)
	name = strings.TrimSuffix(strings.TrimPrefix(name, "trace."), ".psxt")
	n, err := strconv.ParseInt(name, 10, 32)
	if err != nil {
		return 0, false
	}
	return int32(n), true
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
