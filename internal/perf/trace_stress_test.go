package perf

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

// TestSnapshotWhileAppending drives one writer at full rate while a
// reader snapshots concurrently, checking that every snapshot is a
// gap-free prefix of the append order and that every stack referenced
// by a visible sample resolves. Run with -race this is the
// reader/writer publication-protocol stress test.
func TestSnapshotWhileAppending(t *testing.T) {
	const n = 50_000
	b := NewTraceBuffer(64, 0) // small capacity forces chunk growth
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			ss := b.Samples()
			for i, s := range ss {
				if s.Time != int64(i) {
					t.Errorf("snapshot[%d].Time = %d: not a prefix of append order", i, s.Time)
					return
				}
				if s.StackID != NoStack {
					if st := b.Stack(s.StackID); len(st) != 2 || st[0] != uintptr(s.Time) {
						t.Errorf("sample %d: stack %d does not resolve to its pcs", i, s.StackID)
						return
					}
				}
			}
			if nst := b.NumStacks(); nst > n {
				t.Errorf("NumStacks = %d > %d", nst, n)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	stacked := 0
	for i := 0; i < n; i++ {
		s := Sample{Time: int64(i), StackID: NoStack}
		if i%7 == 0 {
			b.AppendStacked(s, []uintptr{uintptr(i), 0xFEED})
			stacked++
		} else {
			b.Append(s)
		}
	}
	close(done)
	wg.Wait()
	if got := b.Len(); got != n {
		t.Errorf("Len = %d, want %d", got, n)
	}
	if got := b.NumStacks(); got != stacked {
		t.Errorf("NumStacks = %d, want %d", got, stacked)
	}
	if b.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", b.Dropped())
	}
}

// Encode writes the chunk as one self-contained v1 trace block (stack
// IDs rebased to the chunk's own table): the reference the tests read
// back; the tool encodes chunks with a BlockEncoder.
func (s *SealedChunk) Encode(w io.Writer) error {
	return writeBlock(w, s.views(), s.c.stackBase, 0)
}

// TestRelayNoLossNoDuplicate streams sealed chunks to a live consumer
// while the writer appends at full rate, then accounts for every
// sample exactly once across the encoded chunks and the final residue:
// nothing lost, nothing double-flushed.
func TestRelayNoLossNoDuplicate(t *testing.T) {
	const n = 40_000
	relay := NewRelay(256)
	b := NewRelayBuffer(relay, 7, 0)

	var stream bytes.Buffer
	var consumed int
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case sc := <-relay.C:
				if sc.Thread() != 7 {
					t.Errorf("chunk thread = %d, want 7", sc.Thread())
				}
				consumed += sc.Len()
				if err := sc.Encode(&stream); err != nil {
					t.Errorf("encode: %v", err)
					return
				}
			case <-done:
				return
			}
		}
	}()

	for i := 0; i < n; i++ {
		s := Sample{Time: int64(i), StackID: NoStack}
		if i%5 == 0 {
			b.AppendStacked(s, []uintptr{uintptr(i)})
		} else {
			b.Append(s)
		}
	}
	close(done)
	wg.Wait()
	// Take what the consumer had not picked up yet, then encode the
	// residue from the live buffer, as the streamer does at detach.
	for {
		select {
		case sc := <-relay.C:
			consumed += sc.Len()
			if err := sc.Encode(&stream); err != nil {
				t.Fatal(err)
			}
			continue
		default:
		}
		break
	}
	if err := WriteTrace(&stream, b); err != nil {
		t.Fatal(err)
	}

	merged, err := ReadTraceStream(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ss := merged.Samples()
	if len(ss)+int(merged.Dropped()) != n {
		t.Fatalf("samples %d + dropped %d != appended %d", len(ss), merged.Dropped(), n)
	}
	// With a large relay and an attentive consumer nothing should drop.
	if merged.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", merged.Dropped())
	}
	seen := make(map[int64]bool, n)
	for _, s := range ss {
		if seen[s.Time] {
			t.Fatalf("sample %d flushed twice", s.Time)
		}
		seen[s.Time] = true
		if s.Time%5 == 0 {
			if st := merged.Stack(s.StackID); len(st) != 1 || st[0] != uintptr(s.Time) {
				t.Fatalf("sample %d: rebased stack = %v", s.Time, st)
			}
		}
	}
}

// TestRelayDropAccountingExact fills chunks with nobody consuming the
// relay: the retained samples, the chunks parked in the channel, and
// the drop counter must account for every append exactly.
func TestRelayDropAccountingExact(t *testing.T) {
	relay := NewRelay(2)
	b := NewRelayBuffer(relay, 0, 0)
	const n = 10 * ChunkSamples
	for i := 0; i < n; i++ {
		b.Append(Sample{Time: int64(i)})
	}
	// 9 chunks sealed: 2 queued, 7 discarded; the 10th is active.
	inChannel := 0
	for {
		select {
		case sc := <-relay.C:
			inChannel += sc.Len()
			continue
		default:
		}
		break
	}
	if inChannel != 2*ChunkSamples {
		t.Errorf("queued samples = %d, want %d", inChannel, 2*ChunkSamples)
	}
	if got := b.Len(); got != ChunkSamples {
		t.Errorf("retained samples = %d, want %d", got, ChunkSamples)
	}
	wantDropped := uint64(n - 3*ChunkSamples)
	if got := b.Dropped(); got != wantDropped {
		t.Errorf("dropped = %d, want %d", got, wantDropped)
	}
	if got := b.RelayDropped(); got != 7 {
		t.Errorf("relay-dropped chunks = %d, want 7", got)
	}
	if b.Len()+inChannel+int(b.Dropped()) != n {
		t.Error("drop accounting does not add up")
	}
}

// TestAppendStackedAtLimitDoesNotLeakStacks is the regression test for
// the join-stack leak: a sample dropped at the buffer limit must not
// retain an interned callstack, and the limit covers stacks.
func TestAppendStackedAtLimitDoesNotLeakStacks(t *testing.T) {
	b := NewTraceBuffer(8, 4)
	for i := 0; i < 100; i++ {
		b.AppendStacked(Sample{Time: int64(i)}, []uintptr{1, 2})
	}
	// Each recorded entry retains a sample and a stack (2 toward the
	// limit of 4): two pairs fit, 98 drops.
	if got := b.Len(); got != 2 {
		t.Errorf("samples = %d, want 2", got)
	}
	if got := b.NumStacks(); got != 2 {
		t.Errorf("stacks = %d, want 2 (stack leak at the limit)", got)
	}
	if got := b.Dropped(); got != 98 {
		t.Errorf("dropped = %d, want 98", got)
	}
}

// TestStackReturnsCopy is the regression test for Stack leaking its
// internal slice: mutating the returned slice must not corrupt the
// interned stack, in a recording buffer or in a decoded Trace.
func TestStackReturnsCopy(t *testing.T) {
	b := NewTraceBuffer(0, 0)
	b.AppendStacked(Sample{}, []uintptr{10, 20, 30})
	id := b.Samples()[0].StackID
	got := b.Stack(id)
	got[0] = 99
	if again := b.Stack(id); again[0] != 10 {
		t.Errorf("interned stack corrupted through Stack's return value: %v", again)
	}
	var out bytes.Buffer
	if err := WriteTraceEnc(&out, b, Encoding{V2: true}); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTraceStream(&out)
	if err != nil {
		t.Fatal(err)
	}
	tr.Stack(0)[0] = 99
	if again := tr.Stack(0); again[0] != 10 {
		t.Errorf("decoded stack corrupted through Stack's return value: %v", again)
	}
}
