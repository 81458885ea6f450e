// Package ingest is the fleet-scale trace ingestion service: many
// instrumented processes ship their sealed trace chunks over TCP to
// one psxd daemon, which writes per-run directories of the same
// `.psxt` block format perf.ReadTraceStream already reads and serves a
// merged observability plane (/metrics, /runs, cross-run /profile) so
// one scrape answers for the whole fleet.
//
// The wire protocol is a compact framed exchange. Every frame is
// length-prefixed and carries one versioned message kind:
//
//	length  uint32  // little-endian; bytes after this field
//	kind    uint8
//	payload length-1 bytes
//
// Client → server kinds: HELLO (protocol version plus run/host/pid
// metadata, first frame of every connection), CHUNK (one encoded PSXT
// trace block with its thread and a session-monotonic sequence
// number), SEAL (no more data for a thread), HEARTBEAT (liveness),
// BYE (run complete). Server → client: HELLO-ACK (typed error code
// plus the highest sequence number the server has already accepted,
// so a reconnecting client resends only the unacknowledged tail) and
// ACK (typed error code per data frame).
//
// Error codes are typed and mirror the collector's per-request wire
// error conventions (collector.ErrorCode): a small enum with stable
// INGEST_* render strings, OK first.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"goomp/internal/freelist"
)

// ProtoVersion is the wire protocol version a HELLO declares. A server
// refuses versions it does not speak with CodeUnsupported rather than
// guessing at frame layouts.
const ProtoVersion = 1

// Message kinds. The kind byte follows the length prefix.
const (
	MsgHello     uint8 = 1 // client: run metadata; must be first
	MsgChunk     uint8 = 2 // client: one trace block (PSXT or PSX2)
	MsgSeal      uint8 = 3 // client: thread's stream is complete
	MsgHeartbeat uint8 = 4 // client: liveness while idle
	MsgBye       uint8 = 5 // client: run complete
	MsgHelloAck  uint8 = 6 // server: code + last accepted sequence
	MsgAck       uint8 = 7 // server: code per data frame
)

// Code is the typed per-frame status a server reports, mirroring the
// collector's request error-code conventions.
type Code uint32

const (
	// CodeOK acknowledges an accepted frame.
	CodeOK Code = iota
	// CodeBadFrame marks a malformed frame (short payload, bad kind).
	CodeBadFrame
	// CodeUnsupported marks a protocol version or kind the server does
	// not speak.
	CodeUnsupported
	// CodeSequence is the "out of sync" error: a data frame before
	// HELLO, or a second HELLO on one connection.
	CodeSequence
	// CodeOverloaded marks a frame dropped because the run's bounded
	// ingest queue stayed full past the backpressure window; the drop
	// is accounted on both ends.
	CodeOverloaded
	// CodeSealed marks data for a thread (or run) that was already
	// sealed.
	CodeSealed
	// CodeStorage marks a frame the server could not persist — the
	// run's storage failed (ENOSPC, EIO, a torn journal) and the run is
	// quarantined. Only this run is affected; other runs keep flowing.
	// The client accounts the chunk in its own typed storage-loss
	// bucket instead of the generic drop counters.
	CodeStorage
)

var codeNames = map[Code]string{
	CodeOK:          "INGEST_OK",
	CodeBadFrame:    "INGEST_BAD_FRAME",
	CodeUnsupported: "INGEST_UNSUPPORTED",
	CodeSequence:    "INGEST_SEQUENCE_ERR",
	CodeOverloaded:  "INGEST_OVERLOADED",
	CodeSealed:      "INGEST_SEALED",
	CodeStorage:     "INGEST_STORAGE",
}

func (c Code) String() string {
	if s, ok := codeNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Code(%d)", uint32(c))
}

// ErrBadFrame reports a malformed or oversized frame.
var ErrBadFrame = errors.New("ingest: malformed frame")

// maxFrameLen bounds one frame so a corrupt length prefix cannot drive
// a huge allocation. A CHUNK carries at most one trace block (one
// sealed chunk of 256 samples plus its stacks), far below this.
const maxFrameLen = 1 << 22

// maxStringLen bounds the run/host strings in a HELLO.
const maxStringLen = 256

// Hello/HelloAck capability flags. The flags word is an optional
// trailer on both payloads (absent = 0), so a client and server from
// either side of the durability change interoperate: an old peer
// simply never negotiates a capability.
const (
	// FlagDurable asks for (HELLO) or grants (HELLO-ACK) durable acks:
	// a data frame is acknowledged only after the server has applied
	// its configured on-disk durability (data + journal written, fsync
	// per policy), so the client's unacknowledged tail survives a
	// daemon crash — the resend after reconnect replays exactly what
	// never reached disk.
	FlagDurable uint32 = 1 << 0
)

// Hello is the first frame of every connection: which run this is,
// from where, and which protocol version the client speaks.
type Hello struct {
	Version uint32
	Run     string
	Host    string
	PID     uint64
	Flags   uint32
}

// HelloAck answers a HELLO. LastSeq is the highest data-frame sequence
// number the server has accepted for this run, across all previous
// connections (in durable mode: the highest sequence persisted to
// disk, including across daemon restarts): the reconnecting client
// drops everything up to and including it from its unacknowledged tail
// before resending. Flags carries the capabilities the server actually
// granted.
type HelloAck struct {
	Code    Code
	LastSeq uint64
	Flags   uint32
}

// Chunk carries one encoded PSXT trace block. Seq is session-monotonic
// across all threads (the client's shipping order); Thread names the
// per-thread trace file the block belongs to; Samples is the sample
// count inside the block, carried explicitly so the server's exact
// drop accounting never needs to decode a block it is about to drop.
type Chunk struct {
	Seq     uint64
	Thread  int32
	Samples uint32
	Block   []byte
}

// Seal marks a thread's stream complete.
type Seal struct {
	Seq    uint64
	Thread int32
}

// Bye marks the run complete. It also carries the client's final loss
// accounting: the sink sends BYE only after every data frame has been
// acknowledged, so the counters are exact, not a snapshot of work in
// flight. The server records them in the run registry and manifest so
// offline readers (ompreport) can report what the client degraded or
// spilled without access to the client process.
type Bye struct {
	Seq            uint64
	Produced       uint64 // chunks the client handed to its sink
	Dropped        uint64 // chunks the client lost (overflow, nack, unflushed)
	DroppedSamples uint64 // samples inside those dropped chunks
	Spilled        uint64 // chunks that took the on-disk spill detour
	Replayed       uint64 // spilled chunks later delivered and acked
}

// ClientLoss is the BYE's loss accounting in the form the run registry
// holds, MANIFEST.json persists and /runs serves: one value carried
// whole from the frame to each of them (embedded, so the JSON keys sit
// at the top level of Manifest and RunInfo). All zero for a run whose
// BYE never arrived.
type ClientLoss struct {
	ClientProduced       uint64 `json:"client_produced_chunks,omitempty"`
	ClientDropped        uint64 `json:"client_dropped_chunks,omitempty"`
	ClientDroppedSamples uint64 `json:"client_dropped_samples,omitempty"`
	ClientSpilled        uint64 `json:"client_spilled_chunks,omitempty"`
	ClientReplayed       uint64 `json:"client_replayed_chunks,omitempty"`

	// Unstored is not the client's: psxd appends what closing its own
	// books against these counts left over (absent when they closed).
	Unstored *Unstored `json:"unstored,omitempty"`
}

// Loss is the frame's accounting without its sequence number.
func (y Bye) Loss() ClientLoss {
	return ClientLoss{
		ClientProduced:       y.Produced,
		ClientDropped:        y.Dropped,
		ClientDroppedSamples: y.DroppedSamples,
		ClientSpilled:        y.Spilled,
		ClientReplayed:       y.Replayed,
	}
}

// Ack answers one data frame.
type Ack struct {
	Seq  uint64
	Code Code
}

// maxPooledFrame is the largest frame buffer psxd's free lists keep. A
// CHUNK frame carries one block of one chunk: a few KiB as PSX2, up to
// about 30 KiB as v1 with its stacks. A frame may be maxFrameLen, but
// no list keeps one that large.
const maxPooledFrame = 64 << 10

func newFrame() *[]byte        { return new([]byte) }
func keepFrame(b *[]byte) bool { return cap(*b) <= maxPooledFrame }

// Two free lists of frame buffers, kept apart because their sizes
// differ a hundredfold: the scratch WriteFrame assembles a frame in
// (mostly acks), and the bodies psxd reads frames into, which travel
// with a chunk to the run's writer (up to a run's QueueDepth of them at
// once, two runs' by default). A GC empties neither, so a daemon that
// has been idle, or a client that attaches again, starts warm. They
// keep at most 32 × 64 KiB = 2 MiB and 128 × 64 KiB = 8 MiB.
var (
	frameScratch = freelist.New(32, newFrame, keepFrame)
	frameBodies  = freelist.New(128, newFrame, keepFrame)
)

// WriteFrame writes one frame as a single Write call, so a transport
// failure either loses the frame whole or tears it mid-write — the
// same single-write discipline the file streamer uses for its blocks.
func WriteFrame(w io.Writer, kind uint8, payload []byte) error {
	if len(payload)+1 > maxFrameLen {
		return fmt.Errorf("%w: oversized payload (%d bytes)", ErrBadFrame, len(payload))
	}
	buf := frameScratch.Get()
	defer frameScratch.Put(buf)
	*buf = append(appendFrameHeader((*buf)[:0], kind, len(payload)), payload...)
	_, err := w.Write(*buf)
	return err
}

// appendFrameHeader appends the length prefix and kind byte of a frame
// whose payload is n bytes.
func appendFrameHeader(dst []byte, kind uint8, n int) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(1+n)), kind)
}

// ReadFrame reads one frame. io.EOF at a frame boundary is returned
// verbatim (a clean close); a partial frame yields ErrUnexpectedEOF.
// The payload is the caller's.
func ReadFrame(r io.Reader) (kind uint8, payload []byte, err error) {
	var body []byte
	return ReadFrameInto(r, &body)
}

// ReadFrameInto is ReadFrame with the frame body read into *body, which
// is grown to fit and which the payload aliases: a reader that is done
// with each payload before the next frame reads every frame into one.
func ReadFrameInto(r io.Reader, body *[]byte) (kind uint8, payload []byte, err error) {
	if cap(*body) < 4 {
		*body = make([]byte, 4)
	}
	// The length prefix is read into the body too: an array of its own
	// would escape through r, one allocation a frame.
	hdr := (*body)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < 1 || n > maxFrameLen {
		return 0, nil, fmt.Errorf("%w: frame length %d", ErrBadFrame, n)
	}
	if uint32(cap(*body)) < n {
		*body = make([]byte, n)
	}
	*body = (*body)[:n]
	if _, err := io.ReadFull(r, *body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return (*body)[0], (*body)[1:], nil
}

// Payload encoders. Strings are uint16-length-prefixed; integers are
// little-endian fixed width, matching the PSXT trace format.

func appendU16String(b []byte, s string) []byte {
	if len(s) > maxStringLen {
		s = s[:maxStringLen]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func takeU16String(b []byte) (string, []byte, bool) {
	if len(b) < 2 {
		return "", nil, false
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if n > maxStringLen || len(b) < n {
		return "", nil, false
	}
	return string(b[:n]), b[n:], true
}

// EncodeHello renders h's payload. The flags word is appended only
// when nonzero so a flagless HELLO stays byte-identical to the
// original protocol.
func EncodeHello(h Hello) []byte {
	b := binary.LittleEndian.AppendUint32(nil, h.Version)
	b = appendU16String(b, h.Run)
	b = appendU16String(b, h.Host)
	b = binary.LittleEndian.AppendUint64(b, h.PID)
	if h.Flags != 0 {
		b = binary.LittleEndian.AppendUint32(b, h.Flags)
	}
	return b
}

// DecodeHello parses a HELLO payload.
func DecodeHello(b []byte) (Hello, error) {
	var h Hello
	if len(b) < 4 {
		return h, ErrBadFrame
	}
	h.Version = binary.LittleEndian.Uint32(b)
	b = b[4:]
	var ok bool
	if h.Run, b, ok = takeU16String(b); !ok {
		return h, ErrBadFrame
	}
	if h.Host, b, ok = takeU16String(b); !ok {
		return h, ErrBadFrame
	}
	switch len(b) {
	case 8: // legacy: no flags trailer
	case 12:
		h.Flags = binary.LittleEndian.Uint32(b[8:])
	default:
		return h, ErrBadFrame
	}
	h.PID = binary.LittleEndian.Uint64(b)
	return h, nil
}

// EncodeHelloAck renders a's payload. Like EncodeHello, the flags
// word appears only when nonzero.
func EncodeHelloAck(a HelloAck) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(a.Code))
	b = binary.LittleEndian.AppendUint64(b, a.LastSeq)
	if a.Flags != 0 {
		b = binary.LittleEndian.AppendUint32(b, a.Flags)
	}
	return b
}

// DecodeHelloAck parses a HELLO-ACK payload.
func DecodeHelloAck(b []byte) (HelloAck, error) {
	a := HelloAck{}
	switch len(b) {
	case 12: // legacy: no flags trailer
	case 16:
		a.Flags = binary.LittleEndian.Uint32(b[12:])
	default:
		return HelloAck{}, ErrBadFrame
	}
	a.Code = Code(binary.LittleEndian.Uint32(b))
	a.LastSeq = binary.LittleEndian.Uint64(b[4:])
	return a, nil
}

// EncodeChunk renders c's payload.
func EncodeChunk(c Chunk) []byte {
	return appendChunk(make([]byte, 0, 16+len(c.Block)), c)
}

func appendChunk(b []byte, c Chunk) []byte {
	b = binary.LittleEndian.AppendUint64(b, c.Seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(c.Thread))
	b = binary.LittleEndian.AppendUint32(b, c.Samples)
	return append(b, c.Block...)
}

// AppendChunkFrame appends c as one whole CHUNK frame — the bytes
// WriteFrame(w, MsgChunk, EncodeChunk(c)) writes — for a sender that
// keeps its own frame buffer and writes them with one Write. It does
// not check the frame bound: a block of one chunk is far below it.
func AppendChunkFrame(dst []byte, c Chunk) []byte {
	return appendChunk(appendFrameHeader(dst, MsgChunk, 16+len(c.Block)), c)
}

// DecodeChunk parses a CHUNK payload. The returned Block aliases b.
func DecodeChunk(b []byte) (Chunk, error) {
	if len(b) < 16 {
		return Chunk{}, ErrBadFrame
	}
	return Chunk{
		Seq:     binary.LittleEndian.Uint64(b),
		Thread:  int32(binary.LittleEndian.Uint32(b[8:])),
		Samples: binary.LittleEndian.Uint32(b[12:]),
		Block:   b[16:],
	}, nil
}

// EncodeSeal renders s's payload.
func EncodeSeal(s Seal) []byte {
	b := binary.LittleEndian.AppendUint64(nil, s.Seq)
	return binary.LittleEndian.AppendUint32(b, uint32(s.Thread))
}

// DecodeSeal parses a SEAL payload.
func DecodeSeal(b []byte) (Seal, error) {
	if len(b) != 12 {
		return Seal{}, ErrBadFrame
	}
	return Seal{
		Seq:    binary.LittleEndian.Uint64(b),
		Thread: int32(binary.LittleEndian.Uint32(b[8:])),
	}, nil
}

// EncodeBye renders y's payload.
func EncodeBye(y Bye) []byte {
	b := binary.LittleEndian.AppendUint64(nil, y.Seq)
	b = binary.LittleEndian.AppendUint64(b, y.Produced)
	b = binary.LittleEndian.AppendUint64(b, y.Dropped)
	b = binary.LittleEndian.AppendUint64(b, y.DroppedSamples)
	b = binary.LittleEndian.AppendUint64(b, y.Spilled)
	b = binary.LittleEndian.AppendUint64(b, y.Replayed)
	return b
}

// DecodeBye parses a BYE payload: exactly the 48 bytes EncodeBye
// produces.
func DecodeBye(b []byte) (Bye, error) {
	if len(b) != 48 {
		return Bye{}, ErrBadFrame
	}
	return Bye{
		Seq:            binary.LittleEndian.Uint64(b),
		Produced:       binary.LittleEndian.Uint64(b[8:]),
		Dropped:        binary.LittleEndian.Uint64(b[16:]),
		DroppedSamples: binary.LittleEndian.Uint64(b[24:]),
		Spilled:        binary.LittleEndian.Uint64(b[32:]),
		Replayed:       binary.LittleEndian.Uint64(b[40:]),
	}, nil
}

// EncodeAck renders a's payload.
func EncodeAck(a Ack) []byte {
	b := binary.LittleEndian.AppendUint64(make([]byte, 0, 12), a.Seq)
	return binary.LittleEndian.AppendUint32(b, uint32(a.Code))
}

// DecodeAck parses an ACK payload.
func DecodeAck(b []byte) (Ack, error) {
	if len(b) != 12 {
		return Ack{}, ErrBadFrame
	}
	return Ack{
		Seq:  binary.LittleEndian.Uint64(b),
		Code: Code(binary.LittleEndian.Uint32(b[8:])),
	}, nil
}
