package ingest

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// Retention: profile storage only pays off when it is bounded. The
// housekeeper runs off the ingest path entirely (never a recording
// thread, never a writer goroutine) and garbage-collects complete runs
// — first everything past -retain-age, then, while the data dir is
// still over -retain-bytes, the oldest complete runs one at a time
// until the total fits. Incomplete runs are never touched: losing an
// in-flight run to the GC would be indistinguishable from the crash
// loss the journal exists to prevent.

// housekeeper is the retention goroutine: one scan per interval until
// shutdown.
func (s *Server) housekeeper() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.HousekeepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-s.deadCh:
			return
		case <-t.C:
			s.Housekeep()
		}
	}
}

// Housekeep runs one retention scan immediately (the housekeeper's
// tick body; exported so psxd and tests can force a pass).
func (s *Server) Housekeep() {
	now := time.Now()
	if age := s.opts.RetainAge; age > 0 {
		for _, r := range s.completeOldestFirst() {
			idle := now.Sub(time.Unix(0, r.lastSeen.Load()))
			if started := now.Sub(r.started); started < idle {
				idle = started
			}
			if idle > age {
				s.gcRun(r)
			}
		}
	}
	total := dirBytes(s.opts.Dir)
	s.storedBytes.Store(total)
	if cap := s.opts.RetainBytes; cap > 0 && total > cap {
		for _, r := range s.completeOldestFirst() {
			if total <= cap {
				break
			}
			total -= s.gcRun(r)
		}
		s.storedBytes.Store(total)
	}
}

// completeOldestFirst snapshots the GC candidates: complete runs,
// oldest start first.
func (s *Server) completeOldestFirst() []*run {
	out := slices.DeleteFunc(s.snapshot(), func(r *run) bool { return !r.complete.Load() })
	sort.Slice(out, func(i, j int) bool {
		if !out[i].started.Equal(out[j].started) {
			return out[i].started.Before(out[j].started)
		}
		return out[i].id < out[j].id
	})
	return out
}

// gcRun removes one complete run — registry entry, writer goroutine
// (a retired run has none left), and directory — and returns the bytes
// freed. The gone latch (under seqMu, the same lock every enqueue
// holds) guarantees no frame can race into the queue after it closes.
func (s *Server) gcRun(r *run) int64 {
	r.seqMu.Lock()
	if r.gone {
		r.seqMu.Unlock()
		return 0
	}
	r.gone = true
	r.closeQueue()
	r.seqMu.Unlock()
	r.wg.Wait()
	s.mu.Lock()
	delete(s.runs, r.id)
	s.mu.Unlock()
	freed := dirBytes(r.st.dir)
	if err := os.RemoveAll(r.st.dir); err != nil {
		r.st.recordErr(fmt.Errorf("ingest: gc run %s: %w", r.id, err))
		return 0
	}
	s.gcRuns.Add(1)
	s.gcBytes.Add(uint64(freed))
	return freed
}

// dirBytes sums the file sizes under root.
func dirBytes(root string) int64 {
	var total int64
	filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
