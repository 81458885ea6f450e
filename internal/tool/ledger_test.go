package tool

import (
	"strings"
	"testing"

	"goomp/internal/ingest"
	"goomp/internal/omp"
)

func TestLedgerBalance(t *testing.T) {
	held := uint64(0)
	l := ingest.NewLedger("ingest produced", "shipped", "replayed", "dropped", "storage")
	l.Held = func() (uint64, uint64) { return held, held * 10 }
	if err := l.Balance(); err != nil {
		t.Fatalf("empty ledger: %v", err)
	}
	l.Take(10)
	err := l.Balance()
	if err == nil {
		t.Fatal("a chunk produced and never settled balanced")
	}
	for _, want := range []string{"ingest produced 1 chunks (10 samples)", "shipped 0", "replayed 0", "dropped 0", "storage 0", "held 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("imbalance error %q does not name %q", err, want)
		}
	}
	held = 1 // parked on disk: kept, not lost
	if err := l.Balance(); err != nil {
		t.Fatalf("held chunk: %v", err)
	}
	held = 0
	l.Settle(dropped, 10)
	if err := l.Balance(); err != nil {
		t.Fatalf("settled chunk: %v", err)
	}
	l.Settle(shipped, 10)
	if err := l.Balance(); err == nil {
		t.Fatal("a chunk settled twice balanced")
	}
}

// teeRun attaches a tool that tees to a local directory and a psxd
// server, runs a few regions, and returns it still attached.
func teeRun(t *testing.T) *Tool {
	t.Helper()
	srv, err := ingest.Serve("127.0.0.1:0", ingest.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rt := omp.New(omp.Config{NumThreads: 2})
	t.Cleanup(rt.Close)
	opts := FullMeasurement()
	opts.StreamDir = t.TempDir()
	opts.IngestAddr = srv.Addr()
	opts.IngestRun = "ledger"
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}
	return tl
}

// TestDetachChecksTheBooks: a healthy tee run closes both ledgers and
// reports no stream error; a chunk taken and never settled — what a
// code path that forgets to account would leave behind — surfaces in
// StreamError at Detach.
func TestDetachChecksTheBooks(t *testing.T) {
	tl := teeRun(t)
	tl.Detach()
	if err := tl.StreamError(); err != nil {
		t.Fatalf("healthy tee run: %v", err)
	}
	file, net := tl.stream.led, tl.stream.net.led
	if staged, _ := file.Taken(); staged == 0 {
		t.Fatal("file ledger took nothing")
	} else if w, _ := file.Settled(written); w != staged {
		t.Errorf("file ledger: staged %d, written %d", staged, w)
	}
	if produced, _ := net.Taken(); produced == 0 {
		t.Fatal("network ledger took nothing")
	} else if s, _ := net.Settled(shipped); s != produced {
		t.Errorf("network ledger: produced %d, shipped %d", produced, s)
	}
	if err := file.Balance(); err != nil {
		t.Error(err)
	}
	if err := net.Balance(); err != nil {
		t.Error(err)
	}

	tl = teeRun(t)
	tl.stream.net.led.Take(7) // produced, never settled
	tl.Detach()
	err := tl.StreamError()
	if err == nil || !strings.Contains(err.Error(), "ledger out of balance: ingest produced") {
		t.Fatalf("StreamError() = %v, want the network ledger's imbalance", err)
	}
}
