package ingest

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// dialFlags is dialClient with a capability trailer on the HELLO.
func dialFlags(t *testing.T, addr, run string, flags uint32) (*testClient, HelloAck) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testClient{t: t, c: c, br: bufio.NewReader(c)}
	if err := WriteFrame(c, MsgHello, EncodeHello(Hello{
		Version: ProtoVersion, Run: run, Host: "testhost", PID: 1, Flags: flags,
	})); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ReadFrame(tc.br)
	if err != nil {
		t.Fatal(err)
	}
	if kind != MsgHelloAck {
		t.Fatalf("first server frame kind = %d, want HELLO-ACK", kind)
	}
	ha, err := DecodeHelloAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	return tc, ha
}

func TestJournalEntryRoundTrip(t *testing.T) {
	want := journalEntry{
		Seq: 42, Thread: 3, Kind: journalChunk,
		Offset: 1 << 33, Length: 9000, Samples: 256, CRC: 0xdeadbeef,
	}
	b := appendJournalEntry(nil, want)
	if len(b) != journalEntryLen {
		t.Fatalf("entry is %d bytes, want %d", len(b), journalEntryLen)
	}
	got, err := decodeJournalEntry(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("roundtrip: got %+v, want %+v", got, want)
	}

	// A single flipped byte must fail the entry CRC.
	for i := 0; i < journalEntryLen; i++ {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0x40
		if _, err := decodeJournalEntry(mut); !errors.Is(err, ErrBadJournal) {
			t.Errorf("byte %d flipped: err = %v, want ErrBadJournal", i, err)
		}
	}
	if _, err := decodeJournalEntry(b[:journalEntryLen-1]); !errors.Is(err, ErrBadJournal) {
		t.Errorf("short entry: err = %v, want ErrBadJournal", err)
	}
}

func TestReplayJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	f, err := osFS{}.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeJournalHeader(f); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := f.Write(appendJournalEntry(nil, journalEntry{
			Seq: seq, Kind: journalChunk, Length: 100, Samples: 5,
		})); err != nil {
			t.Fatal(err)
		}
	}
	// A torn tail: half an entry of garbage.
	if _, err := f.Write(bytes.Repeat([]byte{0xff}, 15)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	entries, valid, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("replayed %d entries, want 3", len(entries))
	}
	if want := int64(journalHeaderLen + 3*journalEntryLen); valid != want {
		t.Fatalf("valid prefix = %d bytes, want %d", valid, want)
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Errorf("entry %d seq = %d", i, e.Seq)
		}
	}

	// A missing journal replays to nothing, without error.
	if entries, valid, err := replayJournal(filepath.Join(dir, "nope.psxj")); err != nil || entries != nil || valid != 0 {
		t.Errorf("missing journal: (%v, %d, %v), want (nil, 0, nil)", entries, valid, err)
	}
	// An unrecognizable header replays to nothing: rebuild from scratch.
	bad := filepath.Join(dir, "bad.psxj")
	os.WriteFile(bad, []byte("not a journal"), 0o644)
	if entries, valid, err := replayJournal(bad); err != nil || entries != nil || valid != 0 {
		t.Errorf("bad header: (%v, %d, %v), want (nil, 0, nil)", entries, valid, err)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want FsyncPolicy
		bad  bool
	}{
		{in: "", want: FsyncPolicy{Mode: FsyncSeal}},
		{in: "seal", want: FsyncPolicy{Mode: FsyncSeal}},
		{in: "never", want: FsyncPolicy{Mode: FsyncNever}},
		{in: "every-1", want: FsyncPolicy{Mode: FsyncEveryN, N: 1}},
		{in: "every-64", want: FsyncPolicy{Mode: FsyncEveryN, N: 64}},
		{in: "every-0", bad: true},
		{in: "every-x", bad: true},
		{in: "always", bad: true},
	}
	for _, c := range cases {
		got, err := ParseFsyncPolicy(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseFsyncPolicy(%q) = %+v, want error", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseFsyncPolicy(%q) = (%+v, %v), want %+v", c.in, got, err, c.want)
		}
	}
	if s := (FsyncPolicy{Mode: FsyncEveryN, N: 8}).String(); s != "every-8" {
		t.Errorf("String() = %q", s)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := &Manifest{
		ID: "m-run", Host: "h", PID: 7, Started: time.Now().UTC().Truncate(time.Second),
		Durable: true, Fsync: "every-4", Complete: true, Salvaged: true,
		LastSeq: 9, Chunks: 5, Samples: 1280, Bytes: 4096, SealedThreads: 2,
	}
	if err := writeManifest(osFS{}, dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("roundtrip: got %+v, want %+v", got, want)
	}
	// The write is atomic: no temp file survives.
	if _, err := os.Stat(filepath.Join(dir, manifestName+".tmp")); !os.IsNotExist(err) {
		t.Errorf("manifest temp file left behind: %v", err)
	}
	if _, err := ReadManifest(t.TempDir()); !os.IsNotExist(err) {
		t.Errorf("manifest-less dir: err = %v, want not-exist", err)
	}
}

// hookFS interposes on Sync for the durable-ack tests: counting syncs,
// failing them by path, or blocking them outright. Manifest temp files
// are exempt everywhere: their sync belongs to the atomic replace, not
// to the fsync policy under test.
type hookFS struct {
	syncs   atomic.Int64
	syncErr func(path string) error // non-nil return fails the sync
	block   chan struct{}           // non-nil: Sync waits here first
	entered chan string             // non-nil: receives the path entering Sync

	openAppendErr func(path string) error // non-nil return fails the open, nothing created
}

type hookFile struct {
	fs    *hookFS
	path  string
	inner File
}

func (h *hookFS) Create(p string) (File, error) {
	f, err := osFS{}.Create(p)
	if err != nil {
		return nil, err
	}
	return &hookFile{fs: h, path: p, inner: f}, nil
}

func (h *hookFS) OpenAppend(p string) (File, error) {
	if h.openAppendErr != nil {
		if err := h.openAppendErr(p); err != nil {
			return nil, err
		}
	}
	f, err := osFS{}.OpenAppend(p)
	if err != nil {
		return nil, err
	}
	return &hookFile{fs: h, path: p, inner: f}, nil
}

func (h *hookFS) Rename(o, n string) error { return os.Rename(o, n) }

func (f *hookFile) Write(b []byte) (int, error) { return f.inner.Write(b) }
func (f *hookFile) Close() error                { return f.inner.Close() }

func (f *hookFile) Sync() error {
	if strings.HasSuffix(f.path, ".tmp") {
		return f.inner.Sync()
	}
	if f.fs.entered != nil {
		select {
		case f.fs.entered <- f.path:
		default:
		}
	}
	if f.fs.block != nil {
		<-f.fs.block
	}
	if f.fs.syncErr != nil {
		if err := f.fs.syncErr(f.path); err != nil {
			return err
		}
	}
	f.fs.syncs.Add(1)
	return f.inner.Sync()
}

// TestDurableAckAfterSync: in durable mode a chunk's ack must not be
// released before the group commit synced it to disk.
func TestDurableAckAfterSync(t *testing.T) {
	fs := &hookFS{}
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir(), FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tc, ha := dialFlags(t, srv.Addr(), "durable-run", FlagDurable)
	defer tc.close()
	if ha.Flags&FlagDurable == 0 {
		t.Fatal("server did not grant FlagDurable")
	}
	block := traceBlock(t, 0, 5)
	ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: block}))
	if ack.Code != CodeOK || ack.Seq != 1 {
		t.Fatalf("chunk ack = %+v", ack)
	}
	// The ack has been observed; the sync covering it must already have
	// happened (data file + journal).
	if n := fs.syncs.Load(); n < 2 {
		t.Fatalf("ack released after %d syncs, want >= 2 (data + journal)", n)
	}
}

// TestNonDurableHelloHasNoFlag: a flagless client gets a flagless
// grant, and its acks do not wait on syncs.
func TestNonDurableHelloHasNoFlag(t *testing.T) {
	fs := &hookFS{}
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir(), FS: fs, Fsync: FsyncPolicy{Mode: FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tc, ha := dialClient(t, srv.Addr(), "plain-run")
	defer tc.close()
	if ha.Flags != 0 {
		t.Fatalf("flagless HELLO granted flags %#x", ha.Flags)
	}
	block := traceBlock(t, 0, 5)
	if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: block})); ack.Code != CodeOK {
		t.Fatalf("chunk ack = %+v", ack)
	}
	if n := fs.syncs.Load(); n != 0 {
		t.Fatalf("fsync=never synced %d times on a plain chunk", n)
	}
}

// TestSyncFailureQuarantinesRun: an EIO at the group-commit fsync must
// downgrade the batch's acks to INGEST_STORAGE, quarantine the run,
// and refuse further chunks — while the BYE still closes the run so it
// can finish and be reclaimed. The BYE's own ack is typed too (its
// durability was not delivered), and the seal it writes carries the
// Quarantined marker so a restarted daemon re-validates the run from
// its journal instead of trusting the manifest.
func TestSyncFailureQuarantinesRun(t *testing.T) {
	fs := &hookFS{syncErr: func(path string) error {
		if strings.Contains(path, journalName) {
			return fmt.Errorf("injected EIO on %s", filepath.Base(path))
		}
		return nil
	}}
	dir := t.TempDir()
	srv, err := Serve("127.0.0.1:0", Options{Dir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tc, _ := dialFlags(t, srv.Addr(), "eio-run", FlagDurable)
	defer tc.close()
	block := traceBlock(t, 0, 5)
	if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: block})); ack.Code != CodeStorage {
		t.Fatalf("chunk ack after failed sync = %+v, want INGEST_STORAGE", ack)
	}
	if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 2, Thread: 0, Samples: 5, Block: block})); ack.Code != CodeStorage {
		t.Fatalf("chunk into a quarantined run acked %+v, want INGEST_STORAGE", ack)
	}
	tc.send(MsgSeal, EncodeSeal(Seal{Seq: 3, Thread: 0}))
	if ack := tc.send(MsgBye, EncodeBye(Bye{Seq: 4})); ack.Code != CodeStorage {
		t.Fatalf("bye ack = %+v, want INGEST_STORAGE (seal durability was not delivered)", ack)
	}
	waitFor(t, "run complete", func() bool {
		for _, ri := range srv.Runs() {
			if ri.ID == "eio-run" && ri.Complete {
				return true
			}
		}
		return false
	})
	var ri RunInfo
	for _, r := range srv.Runs() {
		if r.ID == "eio-run" {
			ri = r
		}
	}
	if !ri.Quarantined {
		t.Error("run not quarantined after a failed group-commit sync")
	}
	if ri.StorageChunks != 2 {
		t.Errorf("storage-refused chunks = %d, want 2", ri.StorageChunks)
	}
	if ri.StorageSamples != 10 {
		t.Errorf("storage-refused samples = %d, want 10", ri.StorageSamples)
	}
	m, err := ReadManifest(filepath.Join(dir, "eio-run"))
	if err != nil {
		t.Fatalf("read sealed manifest: %v", err)
	}
	if !m.Complete || !m.Quarantined {
		t.Errorf("quarantined seal: complete=%v quarantined=%v, want both true", m.Complete, m.Quarantined)
	}
}

// TestCloseWithinAbandonsStuckSync is the bounded-drain regression
// test: a writer wedged inside a never-returning fsync must not wedge
// shutdown — CloseWithin abandons it at the deadline with an error
// (the journal makes whatever was abandoned recoverable).
func TestCloseWithinAbandonsStuckSync(t *testing.T) {
	unblock := make(chan struct{})
	fs := &hookFS{block: unblock, entered: make(chan string, 4)}
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir(), FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// Release the abandoned writer and wait for it to exit: it goes
		// on writing into the run directory, which t.TempDir's cleanup
		// removes as soon as the test returns.
		close(unblock)
		for _, r := range srv.snapshot() {
			r.wg.Wait()
		}
	}()

	tc, _ := dialFlags(t, srv.Addr(), "stuck-run", FlagDurable)
	defer tc.close()
	block := traceBlock(t, 0, 5)
	// Fire the chunk without waiting for its ack: the writer will enter
	// the blocked sync and never come back.
	if err := WriteFrame(tc.c, MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: block})); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the writer never reached the blocked sync")
	}

	start := time.Now()
	err = srv.CloseWithin(150 * time.Millisecond)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("CloseWithin took %v against a wedged fsync", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "drain deadline") {
		t.Fatalf("CloseWithin = %v, want a drain-deadline error", err)
	}
}

// TestRecoverTornTail kills the daemon, damages the tail of both the
// data file and the journal the way a real crash does, and asserts the
// restarted daemon truncates entry-exactly, reports the recovered
// sequence to a reconnecting durable client, and carries the run to a
// byte-exact finish.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	srv, err := Serve("127.0.0.1:0", Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tc, _ := dialFlags(t, srv.Addr(), "torn-run", FlagDurable)
	defer tc.close()
	block := traceBlock(t, 0, 5)
	for seq := uint64(1); seq <= 3; seq++ {
		if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: seq, Thread: 0, Samples: 5, Block: block})); ack.Code != CodeOK {
			t.Fatalf("chunk %d ack = %+v", seq, ack)
		}
	}
	srv.Kill()

	// The crash left a torn half-block beyond the last journal entry,
	// and tore the journal's own tail mid-entry.
	runDir := filepath.Join(dir, "torn-run")
	appendBytes := func(name string, b []byte) {
		f, err := os.OpenFile(filepath.Join(runDir, name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	appendBytes("trace.0.psxt", bytes.Repeat([]byte{0x7f}, 64))
	appendBytes(journalName, bytes.Repeat([]byte{0xff}, 15))

	srv2, err := Serve("127.0.0.1:0", Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if rec := srv2.Recovered(); rec.Runs != 1 || rec.Salvaged != 1 {
		t.Fatalf("recovery summary = %+v, want 1 run, 1 salvaged", rec)
	}
	var ri RunInfo
	for _, r := range srv2.Runs() {
		if r.ID == "torn-run" {
			ri = r
		}
	}
	if !ri.Salvaged || ri.LastSeq != 3 || ri.Chunks != 3 || ri.Samples != 15 {
		t.Fatalf("recovered run = %+v, want salvaged with lastSeq 3, 3 chunks, 15 samples", ri)
	}
	if st, err := os.Stat(filepath.Join(runDir, "trace.0.psxt")); err != nil || st.Size() != int64(3*len(block)) {
		t.Fatalf("trace file is %d bytes after recovery, want %d", st.Size(), 3*len(block))
	}
	if st, err := os.Stat(filepath.Join(runDir, journalName)); err != nil || st.Size() != int64(journalHeaderLen+3*journalEntryLen) {
		t.Fatalf("journal is %d bytes after recovery, want %d", st.Size(), journalHeaderLen+3*journalEntryLen)
	}

	// A reconnecting durable client resumes exactly past the recovered
	// tail.
	tc2, ha := dialFlags(t, srv2.Addr(), "torn-run", FlagDurable)
	defer tc2.close()
	if ha.LastSeq != 3 {
		t.Fatalf("reconnect HELLO-ACK lastSeq = %d, want 3", ha.LastSeq)
	}
	if ha.Flags&FlagDurable == 0 {
		t.Error("recovered run lost its durable grant")
	}
	if ack := tc2.send(MsgChunk, EncodeChunk(Chunk{Seq: 4, Thread: 0, Samples: 5, Block: block})); ack.Code != CodeOK {
		t.Fatalf("resumed chunk ack = %+v", ack)
	}
	tc2.send(MsgSeal, EncodeSeal(Seal{Seq: 5, Thread: 0}))
	if ack := tc2.send(MsgBye, EncodeBye(Bye{Seq: 6})); ack.Code != CodeOK {
		t.Fatalf("bye ack = %+v", ack)
	}
	waitFor(t, "resumed run complete", func() bool {
		for _, r := range srv2.Runs() {
			if r.ID == "torn-run" && r.Complete {
				return true
			}
		}
		return false
	})
	if st, _ := os.Stat(filepath.Join(runDir, "trace.0.psxt")); st.Size() != int64(4*len(block)) {
		t.Fatalf("final trace file is %d bytes, want %d", st.Size(), 4*len(block))
	}
	m, err := ReadManifest(runDir)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete || !m.Salvaged || m.LastSeq != 6 {
		t.Fatalf("final manifest = %+v, want complete, salvaged, lastSeq 6", m)
	}
}

// TestRecoverCompleteManifestTrusted: a run sealed through the atomic
// manifest commit is trusted as-is on restart — no salvage, counters
// restored from the manifest.
func TestRecoverCompleteManifestTrusted(t *testing.T) {
	dir := t.TempDir()
	srv, err := Serve("127.0.0.1:0", Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := dialClient(t, srv.Addr(), "sealed-run")
	block := traceBlock(t, 0, 5)
	tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: block}))
	tc.send(MsgSeal, EncodeSeal(Seal{Seq: 2, Thread: 0}))
	tc.send(MsgBye, EncodeBye(Bye{Seq: 3}))
	waitFor(t, "run complete", func() bool {
		for _, ri := range srv.Runs() {
			if ri.ID == "sealed-run" && ri.Complete {
				return true
			}
		}
		return false
	})
	tc.close()
	srv.Close()

	srv2, err := Serve("127.0.0.1:0", Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if rec := srv2.Recovered(); rec.Runs != 1 || rec.Salvaged != 0 {
		t.Fatalf("recovery summary = %+v, want 1 run, 0 salvaged", rec)
	}
	for _, ri := range srv2.Runs() {
		if ri.ID != "sealed-run" {
			continue
		}
		if !ri.Complete || ri.Salvaged || ri.Chunks != 1 || ri.Samples != 5 {
			t.Fatalf("recovered sealed run = %+v", ri)
		}
	}
}

// TestRecoverIgnoresForeignDir: a directory of trace files with neither
// manifest nor journal was not written by psxd. Recovery must leave it
// byte-for-byte alone — torn tail included — and not register it.
func TestRecoverIgnoresForeignDir(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "someones-streamdir")
	if err := os.MkdirAll(foreign, 0o755); err != nil {
		t.Fatal(err)
	}
	block := traceBlock(t, 0, 5)
	files := map[string][]byte{
		"trace.0.psxt": append(append([]byte(nil), block...), block[:len(block)/2]...),
		"trace.1.psxt": traceBlockV2(t, 1, 7, false),
		"notes.txt":    []byte("not a trace"),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(foreign, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := Serve("127.0.0.1:0", Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if rec := srv.Recovered(); rec.Runs != 0 || rec.Salvaged != 0 {
		t.Fatalf("recovery summary = %+v, want nothing recovered", rec)
	}
	if runs := srv.Runs(); len(runs) != 0 {
		t.Fatalf("foreign directory registered as a run: %+v", runs)
	}
	entries, err := os.ReadDir(foreign)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(files) {
		t.Fatalf("directory holds %d entries after recovery, want the original %d", len(entries), len(files))
	}
	for name, want := range files {
		got, err := os.ReadFile(filepath.Join(foreign, name))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed under recovery (%d bytes, want %d; err %v)", name, len(got), len(want), err)
		}
	}
}

// TestRecoverCrashBeforeFirstJournalEntry: a durable run whose daemon
// died between its first block write and that block's journal entry
// leaves a stamped manifest, a whole valid block in trace.0.psxt and no
// journal. The block was never acknowledged, so recovery must drop it,
// hand the reconnecting client LastSeq 0, and store the resend once.
// Both ways into that state are covered: written by hand, and produced
// by a crash injected into a live daemon.
func TestRecoverCrashBeforeFirstJournalEntry(t *testing.T) {
	block := traceBlockV2(t, 0, 5, false)
	for _, tc := range []struct {
		name  string
		crash func(t *testing.T, dir, run string)
	}{
		{"by hand", func(t *testing.T, dir, run string) {
			runDir := filepath.Join(dir, run)
			if err := os.MkdirAll(runDir, 0o755); err != nil {
				t.Fatal(err)
			}
			m := &Manifest{ID: run, Host: "testhost", PID: 1, Started: time.Now(), Durable: true}
			if err := writeManifest(osFS{}, runDir, m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(runDir, "trace.0.psxt"), block, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"killed daemon", func(t *testing.T, dir, run string) {
			// The first journal open is the crash point: the block is
			// already in the trace file, its entry never gets written.
			reached, killed := make(chan struct{}), make(chan struct{})
			fs := &hookFS{openAppendErr: func(path string) error {
				if filepath.Base(path) != journalName {
					return nil
				}
				close(reached)
				<-killed
				return errors.New("daemon killed before the first journal entry")
			}}
			srv, err := Serve("127.0.0.1:0", Options{Dir: dir, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			tc, ha := dialFlags(t, srv.Addr(), run, FlagDurable)
			defer tc.close()
			if ha.Code != CodeOK || ha.Flags&FlagDurable == 0 {
				t.Fatalf("durable HELLO = %+v", ha)
			}
			if err := WriteFrame(tc.c, MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: block})); err != nil {
				t.Fatal(err)
			}
			select {
			case <-reached:
			case <-time.After(5 * time.Second):
				t.Fatal("the daemon never reached the journal open")
			}
			srv.Kill()
			close(killed)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			const run = "first-entry"
			tc.crash(t, dir, run)
			runDir := filepath.Join(dir, run)
			if _, err := os.Stat(filepath.Join(runDir, journalName)); !os.IsNotExist(err) {
				t.Fatalf("crash state has a journal (stat err %v): the scenario is not the one under test", err)
			}
			if got, err := os.ReadFile(filepath.Join(runDir, "trace.0.psxt")); err != nil || !bytes.Equal(got, block) {
				t.Fatalf("crash state does not hold exactly the unjournaled block: %d bytes, err %v", len(got), err)
			}

			srv, err := Serve("127.0.0.1:0", Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if rec := srv.Recovered(); rec.Runs != 1 || rec.Salvaged != 1 {
				t.Fatalf("recovery summary = %+v, want 1 run, salvaged", rec)
			}
			client, ha := dialFlags(t, srv.Addr(), run, FlagDurable)
			defer client.close()
			if ha.Code != CodeOK || ha.LastSeq != 0 {
				t.Fatalf("HELLO-ACK after recovery = %+v, want LastSeq 0", ha)
			}
			if ack := client.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: block})); ack.Code != CodeOK || ack.Seq != 1 {
				t.Fatalf("resend of seq 1 = %+v", ack)
			}
			got, err := os.ReadFile(filepath.Join(runDir, "trace.0.psxt"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, block) {
				t.Fatalf("trace.0.psxt holds %d bytes after the resend, want the block exactly once (%d)", len(got), len(block))
			}
			for _, ri := range srv.Runs() {
				if ri.ID == run && (ri.Chunks != 1 || ri.Samples != 5 || !ri.Durable) {
					t.Fatalf("registry after the resend = %+v, want 1 durable chunk of 5 samples", ri)
				}
			}
		})
	}
}

// TestRetentionGCOldestFirst: when the data directory exceeds
// -retain-bytes, completed runs are reclaimed oldest-first — and only
// completed runs.
func TestRetentionGCOldestFirst(t *testing.T) {
	dir := t.TempDir()
	srv, err := Serve("127.0.0.1:0", Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	block := traceBlock(t, 0, 5)
	finish := func(run string) {
		tc, _ := dialClient(t, srv.Addr(), run)
		tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: block}))
		tc.send(MsgSeal, EncodeSeal(Seal{Seq: 2, Thread: 0}))
		tc.send(MsgBye, EncodeBye(Bye{Seq: 3}))
		tc.close()
		waitFor(t, run+" complete", func() bool {
			for _, ri := range srv.Runs() {
				if ri.ID == run && ri.Complete {
					return true
				}
			}
			return false
		})
	}
	finish("run-1")
	finish("run-2")
	finish("run-3")
	// An open run the GC must never touch, whatever the pressure.
	tcOpen, _ := dialClient(t, srv.Addr(), "run-open")
	defer tcOpen.close()
	tcOpen.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: block}))
	// A non-durable ack precedes the write: measure the directory only
	// once the open run's block and journal entry are on disk.
	waitFor(t, "run-open's chunk on disk", func() bool {
		for _, ri := range srv.Runs() {
			if ri.ID == "run-open" {
				return ri.Chunks == 1
			}
		}
		return false
	})

	size := func(run string) int64 { return dirBytes(filepath.Join(dir, run)) }
	total := dirBytes(dir)
	s1 := size("run-1")

	// Pressure that one eviction relieves: exactly the oldest goes.
	srv.opts.RetainBytes = total - s1
	srv.Housekeep()
	if _, err := os.Stat(filepath.Join(dir, "run-1")); !os.IsNotExist(err) {
		t.Fatal("run-1 (oldest) was not reclaimed")
	}
	for _, keep := range []string{"run-2", "run-3", "run-open"} {
		if _, err := os.Stat(filepath.Join(dir, keep)); err != nil {
			t.Fatalf("%s reclaimed too early: %v", keep, err)
		}
	}
	for _, ri := range srv.Runs() {
		if ri.ID == "run-1" {
			t.Fatal("run-1 still in the registry after GC")
		}
	}

	// One more notch of pressure: run-2 goes next, never the newer one.
	srv.opts.RetainBytes = dirBytes(dir) - size("run-2")
	srv.Housekeep()
	if _, err := os.Stat(filepath.Join(dir, "run-2")); !os.IsNotExist(err) {
		t.Fatal("run-2 was not reclaimed on the second pass")
	}
	if _, err := os.Stat(filepath.Join(dir, "run-3")); err != nil {
		t.Fatalf("run-3 reclaimed out of order: %v", err)
	}

	// Unbounded pressure still never touches the open run.
	srv.opts.RetainBytes = 1
	srv.Housekeep()
	if _, err := os.Stat(filepath.Join(dir, "run-open")); err != nil {
		t.Fatalf("the open run was reclaimed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "run-3")); !os.IsNotExist(err) {
		t.Fatal("run-3 survived unbounded pressure")
	}
	if got := srv.gcRuns.Load(); got != 3 {
		t.Errorf("gcRuns = %d, want 3", got)
	}
}

// TestRetentionGCByAge: completed runs idle past -retain-age are
// reclaimed regardless of the byte budget.
func TestRetentionGCByAge(t *testing.T) {
	dir := t.TempDir()
	srv, err := Serve("127.0.0.1:0", Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tc, _ := dialClient(t, srv.Addr(), "aged-run")
	block := traceBlock(t, 0, 5)
	tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: block}))
	tc.send(MsgSeal, EncodeSeal(Seal{Seq: 2, Thread: 0}))
	tc.send(MsgBye, EncodeBye(Bye{Seq: 3}))
	tc.close()
	waitFor(t, "run complete", func() bool {
		for _, ri := range srv.Runs() {
			if ri.ID == "aged-run" && ri.Complete {
				return true
			}
		}
		return false
	})
	time.Sleep(10 * time.Millisecond)
	srv.opts.RetainAge = time.Millisecond
	srv.Housekeep()
	if _, err := os.Stat(filepath.Join(dir, "aged-run")); !os.IsNotExist(err) {
		t.Fatal("an idle completed run outlived -retain-age")
	}
}

// TestHelloFlagsTrailerCompat: the flags word rides an optional
// trailer, so flagless payloads stay byte-identical to the original
// protocol and both generations decode each other.
func TestHelloFlagsTrailerCompat(t *testing.T) {
	flagless := EncodeHello(Hello{Version: 1, Run: "r", Host: "h", PID: 2})
	withFlags := EncodeHello(Hello{Version: 1, Run: "r", Host: "h", PID: 2, Flags: FlagDurable})
	if len(withFlags) != len(flagless)+4 {
		t.Fatalf("flags trailer adds %d bytes, want 4", len(withFlags)-len(flagless))
	}
	h, err := DecodeHello(flagless)
	if err != nil || h.Flags != 0 {
		t.Fatalf("legacy hello: (%+v, %v)", h, err)
	}
	h, err = DecodeHello(withFlags)
	if err != nil || h.Flags != FlagDurable || h.PID != 2 {
		t.Fatalf("flagged hello: (%+v, %v)", h, err)
	}

	ackless := EncodeHelloAck(HelloAck{Code: CodeOK, LastSeq: 9})
	ackFlags := EncodeHelloAck(HelloAck{Code: CodeOK, LastSeq: 9, Flags: FlagDurable})
	if len(ackFlags) != len(ackless)+4 {
		t.Fatalf("hello-ack flags trailer adds %d bytes, want 4", len(ackFlags)-len(ackless))
	}
	a, err := DecodeHelloAck(ackless)
	if err != nil || a.Flags != 0 || a.LastSeq != 9 {
		t.Fatalf("legacy hello-ack: (%+v, %v)", a, err)
	}
	a, err = DecodeHelloAck(ackFlags)
	if err != nil || a.Flags != FlagDurable || a.LastSeq != 9 {
		t.Fatalf("flagged hello-ack: (%+v, %v)", a, err)
	}
}

// pipeAcks wires a connSender to an in-memory pipe and collects every
// ack it releases, so commitBatch can be driven directly with a
// deterministic batch layout.
func pipeAcks(t *testing.T, srv *Server) (*connSender, chan Ack) {
	t.Helper()
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close(); server.Close() })
	cs := &connSender{s: srv, c: server}
	acks := make(chan Ack, 8)
	go func() {
		br := bufio.NewReader(client)
		for {
			kind, payload, err := ReadFrame(br)
			if err != nil {
				close(acks)
				return
			}
			if kind != MsgAck {
				continue
			}
			a, err := DecodeAck(payload)
			if err != nil {
				close(acks)
				return
			}
			acks <- a
		}
	}()
	return cs, acks
}

// TestBatchDowngradeWhenByeSyncFails: a chunk acked OK earlier in a
// batch whose BYE performs its own sync — and fails it — must still be
// downgraded to INGEST_STORAGE before release. The BYE's sync latches
// the run broken inside apply, past the group-commit error path, so
// the downgrade has to key off the run ending the batch broken, not
// off the group commit alone.
func TestBatchDowngradeWhenByeSyncFails(t *testing.T) {
	fs := &hookFS{syncErr: func(path string) error {
		return fmt.Errorf("injected EIO on %s", filepath.Base(path))
	}}
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir(), FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r := srv.newRun("batch-bye-run", "h", 1, true)
	if err := os.MkdirAll(r.st.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	cs, acks := pipeAcks(t, srv)
	block := traceBlock(t, 0, 5)
	r.led.Take(5) // the session's half of the chunk's bookkeeping
	r.commitBatch([]item{
		{seq: 5, thread: 0, samples: 5, block: block, sender: cs},
		{seq: 6, bye: true, sender: cs},
	})
	got := map[uint64]Code{}
	for i := 0; i < 2; i++ {
		a := <-acks
		got[a.Seq] = a.Code
	}
	if got[5] != CodeStorage {
		t.Errorf("chunk ack in a batch whose BYE sync failed = %v, want INGEST_STORAGE", got[5])
	}
	if got[6] != CodeStorage {
		t.Errorf("bye ack = %v, want INGEST_STORAGE", got[6])
	}
	if !r.st.broken.Load() {
		t.Error("run not quarantined after the BYE sync failure")
	}
	// The downgraded chunk is storage and only storage, and the BYE
	// sealed its manifest over those books — not over the ones the chunk
	// was in before the batch's sync outcome was final.
	wantBucket(t, r, storage, "storage", 1, 5)
	wantBucket(t, r, committed, "committed", 0, 0)
	if err := r.led.Balance(); err != nil {
		t.Error(err)
	}
	m, err := ReadManifest(r.st.dir)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete || !m.Quarantined || m.Chunks != 0 || m.Samples != 0 {
		t.Errorf("sealed manifest: complete=%v quarantined=%v chunks=%d samples=%d, want true, true, 0, 0",
			m.Complete, m.Quarantined, m.Chunks, m.Samples)
	}
}

// TestBatchDowngradeWhenSealSyncFails is the per-thread variant: a
// SEAL's own syncThread failure must downgrade the other threads'
// chunks sharing its batch.
func TestBatchDowngradeWhenSealSyncFails(t *testing.T) {
	fs := &hookFS{syncErr: func(path string) error {
		return fmt.Errorf("injected EIO on %s", filepath.Base(path))
	}}
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir(), FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r := srv.newRun("batch-seal-run", "h", 1, true)
	if err := os.MkdirAll(r.st.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	cs, acks := pipeAcks(t, srv)
	block := traceBlock(t, 0, 5)
	r.led.Take(5)
	r.commitBatch([]item{
		{seq: 7, thread: 0, samples: 5, block: block, sender: cs},
		{seq: 8, thread: 1, seal: true, sender: cs},
	})
	got := map[uint64]Code{}
	for i := 0; i < 2; i++ {
		a := <-acks
		got[a.Seq] = a.Code
	}
	if got[7] != CodeStorage {
		t.Errorf("chunk ack in a batch whose SEAL sync failed = %v, want INGEST_STORAGE", got[7])
	}
	if got[8] != CodeStorage {
		t.Errorf("seal ack = %v, want INGEST_STORAGE", got[8])
	}
	if !r.st.broken.Load() {
		t.Error("run not quarantined after the seal sync failure")
	}
	wantBucket(t, r, storage, "storage", 1, 5)
	wantBucket(t, r, committed, "committed", 0, 0)
	if err := r.led.Balance(); err != nil {
		t.Error(err)
	}
}

// TestLegacyHelloOnDurableRunGetsLegacyAck: a pre-flags client joining
// a run another (newer) client already created durable must receive
// the legacy 12-byte HELLO-ACK — a flags trailer would fail its
// decoder and lock mixed-version clients out of a shared run.
func TestLegacyHelloOnDurableRunGetsLegacyAck(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tcNew, ha := dialFlags(t, srv.Addr(), "mixed-run", FlagDurable)
	defer tcNew.close()
	if ha.Flags&FlagDurable == 0 {
		t.Fatal("durable client not granted FlagDurable")
	}
	// Flags == 0 encodes with no trailer: true legacy HELLO bytes.
	tcOld, haOld := dialFlags(t, srv.Addr(), "mixed-run", 0)
	defer tcOld.close()
	if haOld.Code != CodeOK {
		t.Fatalf("legacy HELLO refused: %+v", haOld)
	}
	if haOld.Flags != 0 {
		t.Fatalf("legacy HELLO answered with flags %#x: the ack grew a trailer a pre-flags decoder refuses", haOld.Flags)
	}
}

// TestQuarantinedSealForcesJournalRecovery: a Complete manifest
// written after the run broke carries the Quarantined marker, and a
// restarted daemon must not trust it — the journal is replayed, the
// unsynced tail truncated, and the run re-registered salvaged (and
// still complete: the BYE itself is proven by the manifest's rename).
func TestQuarantinedSealForcesJournalRecovery(t *testing.T) {
	fs := &hookFS{syncErr: func(path string) error {
		if strings.Contains(path, journalName) {
			return fmt.Errorf("injected EIO on %s", filepath.Base(path))
		}
		return nil
	}}
	dir := t.TempDir()
	srv, err := Serve("127.0.0.1:0", Options{Dir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := dialFlags(t, srv.Addr(), "qseal-run", FlagDurable)
	block := traceBlock(t, 0, 5)
	if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: block})); ack.Code != CodeStorage {
		t.Fatalf("chunk ack after failed sync = %+v, want INGEST_STORAGE", ack)
	}
	if ack := tc.send(MsgBye, EncodeBye(Bye{Seq: 2})); ack.Code != CodeStorage {
		t.Fatalf("bye ack = %+v, want INGEST_STORAGE", ack)
	}
	tc.close()
	if err := srv.Close(); err != nil {
		t.Logf("close: %v (expected: quarantined run)", err)
	}

	runDir := filepath.Join(dir, "qseal-run")
	m, err := ReadManifest(runDir)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete || !m.Quarantined {
		t.Fatalf("seal after quarantine: complete=%v quarantined=%v, want both true", m.Complete, m.Quarantined)
	}
	// Simulate the torn tail the failed sync could leave: garbage past
	// the journaled extent that a trusted Complete manifest would let
	// readers see.
	tracePath := filepath.Join(runDir, "trace.0.psxt")
	f, err := os.OpenFile(tracePath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn garbage never synced")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, err := Serve("127.0.0.1:0", Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if rec := srv2.Recovered(); rec.Runs != 1 || rec.Salvaged != 1 {
		t.Fatalf("recovered = %+v, want 1 run, 1 salvaged", rec)
	}
	var ri RunInfo
	for _, r := range srv2.Runs() {
		if r.ID == "qseal-run" {
			ri = r
		}
	}
	if !ri.Salvaged || !ri.Complete {
		t.Errorf("recovered run: salvaged=%v complete=%v, want both true", ri.Salvaged, ri.Complete)
	}
	if ri.LastSeq != 1 {
		t.Errorf("recovered lastSeq = %d, want 1 (journal truth, not the manifest's)", ri.LastSeq)
	}
	if st, err := os.Stat(tracePath); err != nil {
		t.Fatal(err)
	} else if st.Size() != int64(len(block)) {
		t.Errorf("trace file = %d bytes after recovery, want %d (torn tail truncated)", st.Size(), len(block))
	}
	// The rewritten manifest is trustworthy again: recovery validated
	// the data it describes.
	if m, err := ReadManifest(runDir); err != nil {
		t.Fatal(err)
	} else if !m.Complete || !m.Salvaged || m.Quarantined {
		t.Errorf("re-sealed manifest: %+v, want complete+salvaged, not quarantined", m)
	}
}
