package ingest

import (
	"errors"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of the books psxd keeps: the sequencing rules as a table, the
// per-run ledger's buckets, the check at Close, the reconciliation
// against the client's BYE, and the line between the two halves.

// seqRun builds a run in the given sequencing state with no server, no
// queue and no socket behind it.
func seqRun(durable, gone, complete, quarantined bool, lastSeq, durableSeq uint64) *run {
	r := &run{durable: durable, gone: gone, st: &store{}}
	r.complete.Store(complete)
	r.st.broken.Store(quarantined)
	r.lastSeq.Store(lastSeq)
	r.st.syncedSeq.Store(durableSeq)
	return r
}

// TestSequenceTable drives the sequencing function over every outcome,
// durable and not, on both sides of durableSeq — and, with unqueued,
// what each outcome answers and books when the writer does not get the
// frame (for accept and the deferred duplicate: the shed case).
func TestSequenceTable(t *testing.T) {
	chunk := func(seq uint64) item { return item{seq: seq, samples: 5} }
	seal := func(seq uint64) item { return item{seq: seq, seal: true} }
	bye := func(seq uint64) item { return item{seq: seq, bye: true} }
	for _, tc := range []struct {
		name string
		r    *run
		it   item
		want verdict
		code Code
		fate Bucket
	}{
		{"new chunk", seqRun(false, false, false, false, 4, 0), chunk(5), vAccept, CodeOverloaded, shed},
		{"new chunk, durable", seqRun(true, false, false, false, 4, 4), chunk(5), vAccept, CodeOverloaded, shed},
		{"unsequenced chunk is never a duplicate", seqRun(false, false, false, false, 4, 0), chunk(0), vAccept, CodeOverloaded, shed},
		{"new seal", seqRun(true, false, false, false, 4, 2), seal(5), vAccept, CodeOverloaded, shed},
		{"resend", seqRun(false, false, false, false, 4, 0), chunk(4), vDuplicate, CodeOK, duplicate},
		{"resend, durable, original on disk", seqRun(true, false, false, false, 4, 3), chunk(3), vDuplicate, CodeOK, duplicate},
		{"resend, durable, original still queued", seqRun(true, false, false, false, 4, 3), chunk(4), vDeferred, CodeOverloaded, duplicate},
		{"resent BYE, durable, original still queued", seqRun(true, false, false, false, 6, 5), bye(6), vDeferred, CodeOverloaded, duplicate},
		{"non-durable runs never defer", seqRun(false, false, false, false, 4, 0), chunk(4), vDuplicate, CodeOK, duplicate},
		{"chunk after BYE", seqRun(false, false, true, false, 4, 0), chunk(5), vSealed, CodeSealed, refused},
		{"seal after BYE", seqRun(true, false, true, false, 4, 4), seal(5), vSealed, CodeSealed, refused},
		{"a BYE may follow a BYE", seqRun(false, false, true, false, 4, 0), bye(5), vAccept, CodeOverloaded, shed},
		{"duplicate wins over complete", seqRun(false, false, true, false, 4, 0), chunk(2), vDuplicate, CodeOK, duplicate},
		{"GC'd run", seqRun(false, true, true, false, 4, 0), chunk(5), vSealed, CodeSealed, refused},
		{"GC wins over duplicate", seqRun(true, true, true, false, 4, 4), chunk(2), vSealed, CodeSealed, refused},
		{"chunk to a quarantined run", seqRun(false, false, false, true, 4, 0), chunk(5), vQuarantined, CodeStorage, storage},
		{"chunk to a quarantined durable run", seqRun(true, false, false, true, 4, 2), chunk(5), vQuarantined, CodeStorage, storage},
		{"seal passes quarantine", seqRun(true, false, false, true, 4, 2), seal(5), vAccept, CodeOverloaded, shed},
		{"BYE passes quarantine", seqRun(false, false, false, true, 4, 0), bye(5), vAccept, CodeOverloaded, shed},
		{"duplicate wins over quarantine", seqRun(false, false, false, true, 4, 0), chunk(4), vDuplicate, CodeOK, duplicate},
	} {
		lastSeq, durableSeq := tc.r.lastSeq.Load(), tc.r.st.syncedSeq.Load()
		got := tc.r.sequence(&tc.it)
		if got != tc.want {
			t.Errorf("%s: verdict %d, want %d", tc.name, got, tc.want)
		}
		if code, fate := got.unqueued(); code != tc.code || fate != tc.fate {
			t.Errorf("%s: unqueued = (%v, bucket %d), want (%v, bucket %d)", tc.name, code, fate, tc.code, tc.fate)
		}
		if tc.r.lastSeq.Load() != lastSeq || tc.r.st.syncedSeq.Load() != durableSeq {
			t.Errorf("%s: sequence moved the run's sequence numbers", tc.name)
		}
	}
}

// runOf fetches a registered run for white-box inspection.
func runOf(t *testing.T, srv *Server, id string) *run {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	r := srv.runs[id]
	if r == nil {
		t.Fatalf("run %s not registered", id)
	}
	return r
}

func wantBucket(t *testing.T, r *run, b Bucket, name string, chunks, samples uint64) {
	t.Helper()
	if c, s := r.led.Settled(b); c != chunks || s != samples {
		t.Errorf("%s bucket = %d chunks (%d samples), want %d (%d)", name, c, s, chunks, samples)
	}
}

// TestRefusedChunksAreBooked: a chunk sent after the BYE, and one sent
// to a run the GC has taken, are acked INGEST_SEALED and booked in the
// run's refused bucket — not lost from the books.
func TestRefusedChunksAreBooked(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir(), RetainAge: time.Nanosecond, HousekeepInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tc, _ := dialClient(t, srv.Addr(), "refused")
	defer tc.close()
	block := traceBlock(t, 0, 5)
	chunk := func(seq uint64) Ack {
		return tc.send(MsgChunk, EncodeChunk(Chunk{Seq: seq, Thread: 0, Samples: 5, Block: block}))
	}
	if a := chunk(1); a.Code != CodeOK {
		t.Fatalf("chunk: %+v", a)
	}
	if a := tc.send(MsgBye, EncodeBye(Bye{Seq: 2, Produced: 1})); a.Code != CodeOK {
		t.Fatalf("bye: %+v", a)
	}
	r := runOf(t, srv, "refused")
	waitFor(t, "run complete", r.complete.Load)
	if a := chunk(3); a.Code != CodeSealed {
		t.Fatalf("chunk after BYE: %+v, want INGEST_SEALED", a)
	}
	wantBucket(t, r, refused, "refused", 1, 5)

	time.Sleep(time.Millisecond) // older than RetainAge
	srv.housekeep()
	if len(srv.Runs()) != 0 {
		t.Fatal("the GC did not take the complete run")
	}
	if a := chunk(4); a.Code != CodeSealed {
		t.Fatalf("chunk to a GC'd run: %+v, want INGEST_SEALED", a)
	}
	wantBucket(t, r, refused, "refused", 2, 10)
	wantBucket(t, r, committed, "committed", 1, 5)
	if err := r.led.Balance(); err != nil {
		t.Error(err)
	}
}

// TestDuplicateChunksAreBookedPerRun: a resent chunk is acked OK again
// and booked — with its samples — in its own run's duplicate bucket,
// beside the fleet-wide frame counter.
func TestDuplicateChunksAreBookedPerRun(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, id := range []string{"dup", "clean"} {
		tc, _ := dialClient(t, srv.Addr(), id)
		defer tc.close()
		frame := EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: traceBlock(t, 0, 5)})
		resends := map[string]int{"dup": 2}[id]
		for i := 0; i <= resends; i++ {
			if a := tc.send(MsgChunk, frame); a.Code != CodeOK {
				t.Fatalf("%s send %d: %+v", id, i, a)
			}
		}
	}
	wantBucket(t, runOf(t, srv, "dup"), duplicate, "dup: duplicate", 2, 10)
	wantBucket(t, runOf(t, srv, "clean"), duplicate, "clean: duplicate", 0, 0)
	for _, ri := range srv.Runs() {
		if want := map[string]uint64{"dup": 2}[ri.ID]; ri.DuplicateChunks != want {
			t.Errorf("/runs %s: duplicate_chunks = %d, want %d", ri.ID, ri.DuplicateChunks, want)
		}
	}
	if n := srv.duplicates.Load(); n != 2 {
		t.Errorf("fleet duplicate frames = %d, want 2", n)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("books after duplicates: %v", err)
	}
}

// TestCloseChecksTheBooks: a chunk taken and never settled — what a
// code path that forgets to account would leave behind — makes Close
// return an error that names every bucket.
func TestCloseChecksTheBooks(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := dialClient(t, srv.Addr(), "books")
	defer tc.close()
	if a := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: traceBlock(t, 0, 5)})); a.Code != CodeOK {
		t.Fatalf("chunk: %+v", a)
	}
	runOf(t, srv, "books").led.Take(7) // taken, never settled
	err = srv.Close()
	if err == nil {
		t.Fatal("Close balanced a chunk that was taken and never settled")
	}
	for _, want := range []string{"ledger out of balance: run books took 2 chunks (12 samples)",
		"committed 1 (5)", "storage 0", "shed 0", "duplicate 0", "refused 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Close error %q does not name %q", err, want)
		}
	}
}

// failWriteFS fails every trace-file write once armed.
type failWriteFS struct {
	osFS
	armed atomic.Bool
}

type failWriteFile struct {
	File
	fs *failWriteFS
}

func (fs *failWriteFS) OpenAppend(p string) (File, error) {
	f, err := fs.osFS.OpenAppend(p)
	if err == nil && strings.HasSuffix(p, ".psxt") {
		f = failWriteFile{f, fs}
	}
	return f, err
}

func (f failWriteFile) Write(b []byte) (int, error) {
	if f.fs.armed.Load() {
		return 0, errors.New("injected EIO")
	}
	return f.File.Write(b)
}

// TestReconcileCountsWhatStorageLost: a non-durable run acks OK on
// accept, so a write error that hits the writer afterwards loses a
// chunk the client counts delivered. The books still close — the lost
// chunk and the one then refused at the door are both storage — and
// the BYE stamps them: the remainder is exactly the chunks lost.
func TestReconcileCountsWhatStorageLost(t *testing.T) {
	fs := &failWriteFS{}
	dir := t.TempDir()
	srv, err := Serve("127.0.0.1:0", Options{Dir: dir, FS: fs, Fsync: FsyncPolicy{Mode: FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := dialClient(t, srv.Addr(), "lossy")
	defer tc.close()
	block := traceBlock(t, 0, 5)
	chunk := func(seq uint64) Ack {
		return tc.send(MsgChunk, EncodeChunk(Chunk{Seq: seq, Thread: 0, Samples: 5, Block: block}))
	}
	r := runOf(t, srv, "lossy")
	if a := chunk(1); a.Code != CodeOK {
		t.Fatalf("chunk 1: %+v", a)
	}
	waitFor(t, "chunk 1 written", func() bool { c, _ := r.led.Settled(committed); return c == 1 })
	fs.armed.Store(true)
	if a := chunk(2); a.Code != CodeOK {
		t.Fatalf("chunk 2: %+v, want OK (the ack leaves before the write)", a)
	}
	waitFor(t, "quarantine", r.st.broken.Load)
	if a := chunk(3); a.Code != CodeStorage {
		t.Fatalf("chunk 3: %+v, want INGEST_STORAGE at the door", a)
	}
	// The client's own books: three handed over, none dropped by it.
	if a := tc.send(MsgBye, EncodeBye(Bye{Seq: 4, Produced: 3})); a.Code != CodeOK {
		t.Fatalf("bye: %+v (a non-durable BYE is acked on accept)", a)
	}
	waitFor(t, "run complete", r.complete.Load)

	want := Unstored{Storage: 2}
	m, err := ReadManifest(filepath.Join(dir, "lossy"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Unstored == nil || *m.Unstored != want || m.Chunks != 1 || !m.Quarantined {
		t.Errorf("manifest: chunks %d quarantined %v unstored %+v, want 1, true, %+v", m.Chunks, m.Quarantined, m.Unstored, want)
	}
	ri := srv.Runs()[0]
	if ri.Unstored == nil || *ri.Unstored != want || ri.StorageChunks != 2 {
		t.Errorf("/runs: unstored %+v storage %d, want %+v and 2", ri.Unstored, ri.StorageChunks, want)
	}
	if got := ri.Unstored.String(); !strings.HasPrefix(got, "2 chunks the client counts delivered are not in storage: 2 refused INGEST_STORAGE, 0 unaccounted") {
		t.Errorf("summary line %q", got)
	}
	wantBucket(t, r, storage, "storage", 2, 10)
	if err := srv.Close(); err == nil || strings.Contains(err.Error(), "out of balance") {
		t.Errorf("Close = %v, want the write error and balanced books", err)
	}
}

// TestReconcileFlagsWhatNobodyBooked: a BYE that counts more delivered
// than the run ever took leaves the difference as unaccounted — the
// case no single ledger can see.
func TestReconcileFlagsWhatNobodyBooked(t *testing.T) {
	dir := t.TempDir()
	srv, err := Serve("127.0.0.1:0", Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tc, _ := dialClient(t, srv.Addr(), "short")
	defer tc.close()
	tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: traceBlock(t, 0, 5)}))
	tc.send(MsgBye, EncodeBye(Bye{Seq: 2, Produced: 4, Dropped: 1}))
	waitFor(t, "run complete", runOf(t, srv, "short").complete.Load)
	m, err := ReadManifest(filepath.Join(dir, "short"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (Unstored{Unaccounted: 2}); m.Unstored == nil || *m.Unstored != want {
		t.Errorf("unstored = %+v, want %+v (4 produced − 1 dropped − 1 committed)", m.Unstored, want)
	}
}

// TestHalvesKeepToTheirImports: the storage half knows no connection
// and the session half no file, and the compiler is not asked to take
// that on trust.
func TestHalvesKeepToTheirImports(t *testing.T) {
	for file, banned := range map[string][]string{
		"store.go":   {"net"},
		"journal.go": {"net"},
		"recover.go": {"net"},
		"fs.go":      {"net"},
		"ledger.go":  {"net", "os"},
		"session.go": {"os", "path/filepath"},
	} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			for _, b := range banned {
				if path == b {
					t.Errorf("%s imports %q", file, path)
				}
			}
		}
	}
}
