package ingest

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Crash-safe run storage. Each run directory holds, next to its
// per-thread trace.N.psxt files:
//
//   - journal.psxj — an append-only journal with one fixed-width entry
//     per accepted data frame: which trace file grew, at which offset,
//     by how many bytes, carrying which sequence number, and the
//     CRC32 of the appended block. Every entry is itself CRC-guarded,
//     so a tail torn by a crash is detected entry-exactly.
//   - MANIFEST.json — the run's identity and seal state, replaced
//     atomically (temp file + rename) so it is either the old manifest
//     or the new one, never a torn hybrid.
//
// The write protocol is block-then-journal: a trace block is appended
// to its data file first, its journal entry second. A crash between
// the two leaves data bytes beyond the last journal entry — recovery
// truncates them away (the client never got a durable ack for them, so
// it resends). The journal never describes bytes that are not in the
// data file, except when the data write itself tore mid-block, which
// the block CRC catches on replay.

const (
	journalName  = "journal.psxj"
	manifestName = "MANIFEST.json"
	traceNameFmt = "trace.%d.psxt" // a thread's data file
)

var journalMagic = [4]byte{'P', 'S', 'X', 'J'}

const journalVersion = 1

// journalHeaderLen is the file header: magic + version.
const journalHeaderLen = 8

// journalEntryLen is the fixed entry width:
// seq(8) thread(4) kind(1) offset(8) length(4) samples(4) crc(4) ecrc(4).
const journalEntryLen = 37

// Journal entry kinds.
const (
	journalChunk uint8 = 1
	journalSeal  uint8 = 2
	journalBye   uint8 = 3
)

// ErrBadJournal reports a malformed journal; replay treats it as the
// torn-tail boundary rather than a fatal error.
var ErrBadJournal = errors.New("ingest: malformed journal")

// journalEntry is one accepted data frame's durable record.
type journalEntry struct {
	Seq     uint64
	Thread  int32
	Kind    uint8
	Offset  uint64 // data-file offset the block starts at (chunk only)
	Length  uint32 // block byte length (chunk only)
	Samples uint32
	CRC     uint32 // CRC32 (IEEE) of the block bytes (chunk only)
}

// appendJournalEntry appends e as one fixed-width record, entry CRC
// included, sized for a single append Write.
func appendJournalEntry(dst []byte, e journalEntry) []byte {
	at := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, e.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Thread))
	dst = append(dst, e.Kind)
	dst = binary.LittleEndian.AppendUint64(dst, e.Offset)
	dst = binary.LittleEndian.AppendUint32(dst, e.Length)
	dst = binary.LittleEndian.AppendUint32(dst, e.Samples)
	dst = binary.LittleEndian.AppendUint32(dst, e.CRC)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[at:]))
}

// decodeJournalEntry parses one record, verifying the entry CRC.
func decodeJournalEntry(b []byte) (journalEntry, error) {
	var e journalEntry
	if len(b) < journalEntryLen {
		return e, fmt.Errorf("%w: short entry (%d bytes)", ErrBadJournal, len(b))
	}
	if crc32.ChecksumIEEE(b[:33]) != binary.LittleEndian.Uint32(b[33:]) {
		return e, fmt.Errorf("%w: entry CRC mismatch", ErrBadJournal)
	}
	e.Seq = binary.LittleEndian.Uint64(b[0:])
	e.Thread = int32(binary.LittleEndian.Uint32(b[8:]))
	e.Kind = b[12]
	e.Offset = binary.LittleEndian.Uint64(b[13:])
	e.Length = binary.LittleEndian.Uint32(b[21:])
	e.Samples = binary.LittleEndian.Uint32(b[25:])
	e.CRC = binary.LittleEndian.Uint32(b[29:])
	if e.Kind < journalChunk || e.Kind > journalBye {
		return e, fmt.Errorf("%w: unknown entry kind %d", ErrBadJournal, e.Kind)
	}
	return e, nil
}

// writeJournalHeader starts a fresh journal file.
func writeJournalHeader(f File) error {
	var hdr [journalHeaderLen]byte
	copy(hdr[:4], journalMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], journalVersion)
	_, err := f.Write(hdr[:])
	return err
}

// replayJournal reads a run's journal and returns the entries of its
// valid prefix plus the byte length of that prefix. A missing journal
// yields (nil, 0, nil); a torn or corrupt tail is not an error — the
// entries before the damage are returned and validBytes marks where
// the journal itself must be truncated.
func replayJournal(path string) (entries []journalEntry, validBytes int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	if len(data) < journalHeaderLen || [4]byte(data[:4]) != journalMagic ||
		binary.LittleEndian.Uint32(data[4:8]) != journalVersion {
		return nil, 0, nil // unrecognizable: replay nothing, rebuild from scratch
	}
	off := int64(journalHeaderLen)
	for int(off)+journalEntryLen <= len(data) {
		e, err := decodeJournalEntry(data[off : off+journalEntryLen])
		if err != nil {
			break // torn tail: everything before it is still good
		}
		entries = append(entries, e)
		off += journalEntryLen
	}
	return entries, off, nil
}

// Manifest is a run's durable identity and seal state, stored as
// MANIFEST.json in the run directory and replaced atomically. Complete
// flips to true only through the atomic seal at BYE; Salvaged marks a
// run that a restarted daemon recovered from its journal; Quarantined
// marks a seal written after the run's storage failed — the fsynced
// manifest may have reached disk while the data it describes did not,
// so recovery must not trust such a seal and instead re-validates the
// run from its journal.
type Manifest struct {
	ID            string    `json:"id"`
	Host          string    `json:"host,omitempty"`
	PID           uint64    `json:"pid,omitempty"`
	Started       time.Time `json:"started"`
	Durable       bool      `json:"durable,omitempty"`
	Fsync         string    `json:"fsync,omitempty"`
	Complete      bool      `json:"complete"`
	Salvaged      bool      `json:"salvaged,omitempty"`
	Quarantined   bool      `json:"quarantined,omitempty"`
	LastSeq       uint64    `json:"last_seq"`
	Chunks        uint64    `json:"chunks"`
	Samples       uint64    `json:"samples"`
	Bytes         uint64    `json:"bytes"`
	SealedThreads int64     `json:"sealed_threads"`

	// Client-reported loss accounting from the BYE frame that sealed
	// the run (zero for interrupted seals). Offline readers surface
	// these so a run that degraded, dropped or spilled at the producing
	// end says so in the report.
	ClientLoss
}

// ReadManifest loads a run directory's manifest. The offline reader
// (ompreport) uses it to mark salvaged runs; a directory
// without one (a plain StreamDir) returns os.ErrNotExist.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("ingest: manifest %s: %w", dir, err)
	}
	return &m, nil
}

// writeManifest atomically replaces dir's manifest: temp file, write,
// fsync, rename. A crash before the rename leaves the old manifest; a
// crash after leaves the new one; nothing in between is observable.
func writeManifest(fs FS, dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, filepath.Join(dir, manifestName))
}

// FsyncMode selects when the writer goroutine calls fsync. The zero
// value is FsyncSeal: sync at thread seals and the run seal, cheap and
// bounded-loss (an unsealed tail may be lost to a machine crash; a
// daemon crash alone loses nothing the journal recorded).
type FsyncMode int

const (
	// FsyncSeal syncs a thread's file when its stream seals and
	// everything at BYE.
	FsyncSeal FsyncMode = iota
	// FsyncNever never syncs; the page cache is the only durability.
	FsyncNever
	// FsyncEveryN syncs all touched files plus the journal after every
	// N accepted chunks per run (and at seals).
	FsyncEveryN
)

// FsyncPolicy is the configured durability cadence.
type FsyncPolicy struct {
	Mode FsyncMode
	N    int // chunks between syncs when Mode == FsyncEveryN
}

// ParseFsyncPolicy parses the -fsync knob: "never", "seal", or
// "every-N" with N ≥ 1 (e.g. "every-8").
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch {
	case s == "" || s == "seal":
		return FsyncPolicy{Mode: FsyncSeal}, nil
	case s == "never":
		return FsyncPolicy{Mode: FsyncNever}, nil
	case strings.HasPrefix(s, "every-"):
		var n int
		if _, err := fmt.Sscanf(s[len("every-"):], "%d", &n); err != nil || n < 1 {
			return FsyncPolicy{}, fmt.Errorf("ingest: bad fsync policy %q (want every-N with N ≥ 1)", s)
		}
		return FsyncPolicy{Mode: FsyncEveryN, N: n}, nil
	}
	return FsyncPolicy{}, fmt.Errorf("ingest: bad fsync policy %q (want never, seal, or every-N)", s)
}

func (p FsyncPolicy) String() string {
	switch p.Mode {
	case FsyncNever:
		return "never"
	case FsyncEveryN:
		return fmt.Sprintf("every-%d", p.N)
	}
	return "seal"
}

// crcFileSegment computes the CRC32 of the length bytes at offset in f
// — all of them: a file that ends short is an error — streaming so a
// large block never needs a whole-block allocation.
func crcFileSegment(f *os.File, offset int64, length int64) (uint32, error) {
	h := crc32.NewIEEE()
	if _, err := io.CopyN(h, io.NewSectionReader(f, offset, length), length); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}
