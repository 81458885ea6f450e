package faultinject

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"goomp/internal/ingest"
)

// Writer-side filesystem faults for the ingest server's storage path.
// IngestFS wraps the real filesystem behind ingest.Options.FS, so
// every byte psxd persists — trace blocks, journal entries, manifests
// — passes the plan's disk schedule exactly where a real disk would
// fail it:
//
//   - DiskFullAfter: ENOSPC once a byte budget is spent (matching
//     paths only), the graceful-degradation case — the run must be
//     quarantined with the typed INGEST_STORAGE code while other runs
//     keep flowing.
//   - SlowSync: a stalled fsync — the case bounded drains exist for.
//   - CrashOnWrite / CrashOnRename: half-write (or rename-point)
//     faults that synchronously fire the plan's OnCrash hook — tests
//     point it at Server.Kill so the "daemon died right here" disk
//     state is exact and deterministic, before any error can be acked.
//     The half-written block really lands: recovery must CRC it away.
//
// The faults shape only what reaches disk; recovery always reads the
// real filesystem back.

// fsRule is one armed filesystem fault.
type fsRule struct {
	kind  Kind
	match string // path substring; "" matches every path
	nth   int    // 1-based matching-write index (crash-write)
	bytes int64  // byte budget (disk-full)
	delay time.Duration
	after bool // crash-rename: crash after the rename commits

	seen    int   // matching ops observed
	written int64 // bytes accepted so far (disk-full)
	spent   bool  // one-shot rules that already fired
}

func (r *fsRule) matches(path string) bool {
	return r.match == "" || strings.Contains(path, r.match)
}

// DiskFullAfter arms an ENOSPC fault: once n bytes have been written
// to files whose path contains match, every further write to matching
// files fails with ENOSPC (wrapped in ErrInjected).
func (p *Plan) DiskFullAfter(match string, n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fsRules = append(p.fsRules, &fsRule{kind: KindDiskFull, match: match, bytes: n})
}

// SlowSync makes every Sync of a matching file take at least d — the
// stalled-disk case bounded drains exist for.
func (p *Plan) SlowSync(match string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fsRules = append(p.fsRules, &fsRule{kind: KindSlowSync, match: match, delay: d})
}

// CrashOnWrite makes the nth (1-based) write to a matching file tear
// halfway and then fires the OnCrash hook synchronously — before the
// caller can observe the error, so a test's Server.Kill suppresses
// any ack for the torn frame exactly like a real kill -9 mid-write.
func (p *Plan) CrashOnWrite(match string, nth int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fsRules = append(p.fsRules, &fsRule{kind: KindCrashWrite, match: match, nth: nth})
}

// CrashOnRename crashes around a matching rename: with after false the
// rename never happens (crash-before — the old file survives); with
// after true the rename commits first (crash-after — the new file
// survives). Either way OnCrash fires synchronously.
func (p *Plan) CrashOnRename(match string, after bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fsRules = append(p.fsRules, &fsRule{kind: KindCrashRename, match: match, after: after})
}

// SetOnCrash installs the hook crash-shaped filesystem faults fire
// (typically the ingest server's Kill).
func (p *Plan) SetOnCrash(f func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onCrash = f
}

// IngestFS wraps the real filesystem with the plan's disk-fault
// schedule; hand it to ingest.Options.FS.
func (p *Plan) IngestFS() ingest.FS { return faultFS{p: p} }

type faultFS struct{ p *Plan }

func (f faultFS) Create(path string) (ingest.File, error) {
	w, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &faultFile{p: f.p, path: path, inner: w}, nil
}

func (f faultFS) OpenAppend(path string) (ingest.File, error) {
	w, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &faultFile{p: f.p, path: path, inner: w}, nil
}

func (f faultFS) Rename(oldpath, newpath string) error {
	crash, after := f.p.renameFault(newpath)
	if !crash {
		return os.Rename(oldpath, newpath)
	}
	if after {
		os.Rename(oldpath, newpath)
	}
	f.p.fireCrash()
	return fmt.Errorf("rename %s: %w", filepath.Base(newpath), ErrInjected)
}

// faultFile interposes the plan between the server's writer goroutine
// and one real file.
type faultFile struct {
	p     *Plan
	path  string
	inner *os.File
}

// fsAction is one write decision, resolved under the plan lock but
// executed outside it (the crash hook takes server locks).
type fsAction struct {
	kind Kind
	err  error
}

func (f *faultFile) Write(b []byte) (int, error) {
	act := f.p.writeFSFault(f.path, len(b))
	switch act.kind {
	case KindDiskFull:
		return 0, act.err
	case KindCrashWrite:
		n := len(b) / 2
		if n == 0 && len(b) > 0 {
			n = 1
		}
		// The partial bytes really land: recovery must CRC them away.
		f.inner.Write(b[:n])
		f.p.fireCrash()
		return n, act.err
	}
	return f.inner.Write(b)
}

func (f *faultFile) Sync() error {
	if d := f.p.syncDelay(f.path); d > 0 {
		time.Sleep(d)
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error { return f.inner.Close() }

// writeFSFault resolves the fate of one write under the plan lock.
func (p *Plan) writeFSFault(path string, size int) fsAction {
	p.mu.Lock()
	defer p.mu.Unlock()
	base := filepath.Base(path)
	for _, r := range p.fsRules {
		if !r.matches(path) {
			continue
		}
		switch r.kind {
		case KindDiskFull:
			if r.written+int64(size) > r.bytes {
				p.fired = append(p.fired, Record{Kind: KindDiskFull,
					Point: fmt.Sprintf("%s after %d bytes", base, r.written)})
				return fsAction{kind: KindDiskFull,
					err: fmt.Errorf("write %s: %w: %w", base, syscall.ENOSPC, ErrInjected)}
			}
			r.written += int64(size)
		case KindCrashWrite:
			if r.spent {
				continue
			}
			r.seen++
			if r.seen == r.nth {
				r.spent = true
				p.fired = append(p.fired, Record{Kind: KindCrashWrite,
					Point: fmt.Sprintf("%s write %d", base, r.nth)})
				return fsAction{kind: KindCrashWrite,
					err: fmt.Errorf("write %s: torn: %w", base, ErrInjected)}
			}
		}
	}
	return fsAction{}
}

// syncDelay resolves, under the plan lock, how long one fsync stalls.
func (p *Plan) syncDelay(path string) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var delay time.Duration
	for _, r := range p.fsRules {
		if r.kind == KindSlowSync && r.matches(path) {
			p.fired = append(p.fired, Record{Kind: KindSlowSync,
				Point: fmt.Sprintf("%s sync", filepath.Base(path))})
			delay = max(delay, r.delay)
		}
	}
	return delay
}

// renameFault reports whether a crash-rename rule covers newpath.
func (p *Plan) renameFault(newpath string) (crash, after bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.fsRules {
		if r.kind != KindCrashRename || r.spent || !r.matches(newpath) {
			continue
		}
		r.spent = true
		p.fired = append(p.fired, Record{Kind: KindCrashRename,
			Point: fmt.Sprintf("%s (after=%v)", filepath.Base(newpath), r.after)})
		return true, r.after
	}
	return false, false
}

// fireCrash invokes the OnCrash hook outside the plan lock.
func (p *Plan) fireCrash() {
	p.mu.Lock()
	f := p.onCrash
	p.mu.Unlock()
	if f != nil {
		f()
	}
}
