package ingest

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := map[uint8][]byte{
		MsgHello:     EncodeHello(Hello{Version: ProtoVersion, Run: "r1", Host: "h", PID: 42}),
		MsgChunk:     EncodeChunk(Chunk{Seq: 7, Thread: 3, Samples: 256, Block: []byte("block-bytes")}),
		MsgSeal:      EncodeSeal(Seal{Seq: 8, Thread: 3}),
		MsgHeartbeat: nil,
		MsgBye:       EncodeBye(Bye{Seq: 9}),
		MsgHelloAck:  EncodeHelloAck(HelloAck{Code: CodeOK, LastSeq: 6}),
		MsgAck:       EncodeAck(Ack{Seq: 7, Code: CodeOverloaded}),
	}
	order := []uint8{MsgHello, MsgChunk, MsgSeal, MsgHeartbeat, MsgBye, MsgHelloAck, MsgAck}
	for _, kind := range order {
		if err := WriteFrame(&buf, kind, payloads[kind]); err != nil {
			t.Fatalf("write kind %d: %v", kind, err)
		}
	}
	for _, want := range order {
		kind, payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read kind %d: %v", want, err)
		}
		if kind != want {
			t.Fatalf("read kind %d, want %d", kind, want)
		}
		if !bytes.Equal(payload, payloads[want]) {
			t.Fatalf("kind %d: payload mismatch", want)
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("clean end = %v, want io.EOF", err)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	h := Hello{Version: 3, Run: "my-run.01", Host: "node-7", PID: 12345}
	if got, err := DecodeHello(EncodeHello(h)); err != nil || got != h {
		t.Fatalf("hello round trip: %+v, %v (want %+v)", got, err, h)
	}
	ha := HelloAck{Code: CodeSequence, LastSeq: 99}
	if got, err := DecodeHelloAck(EncodeHelloAck(ha)); err != nil || got != ha {
		t.Fatalf("hello-ack round trip: %+v, %v", got, err)
	}
	ck := Chunk{Seq: 1, Thread: -1, Samples: 5, Block: []byte{1, 2, 3}}
	got, err := DecodeChunk(EncodeChunk(ck))
	if err != nil || got.Seq != ck.Seq || got.Thread != ck.Thread ||
		got.Samples != ck.Samples || !bytes.Equal(got.Block, ck.Block) {
		t.Fatalf("chunk round trip: %+v, %v", got, err)
	}
	sl := Seal{Seq: 2, Thread: 4}
	if got, err := DecodeSeal(EncodeSeal(sl)); err != nil || got != sl {
		t.Fatalf("seal round trip: %+v, %v", got, err)
	}
	y := Bye{Seq: 3, Produced: 10, Dropped: 2, DroppedSamples: 40, Spilled: 5, Replayed: 4}
	if got, err := DecodeBye(EncodeBye(y)); err != nil || got != y {
		t.Fatalf("bye round trip: %+v, %v", got, err)
	}
	a := Ack{Seq: 4, Code: CodeSealed}
	if got, err := DecodeAck(EncodeAck(a)); err != nil || got != a {
		t.Fatalf("ack round trip: %+v, %v", got, err)
	}
}

func TestReadFrameTornAndBad(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgChunk, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-4] // cut mid-payload
	if _, _, err := ReadFrame(bytes.NewReader(torn)); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn frame = %v, want ErrUnexpectedEOF", err)
	}
	// A zero-length frame (no kind byte) and an oversized length prefix
	// are both malformed, not allocation drivers.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("zero-length frame = %v, want ErrBadFrame", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized frame = %v, want ErrBadFrame", err)
	}
}

func TestDecodeRejectsShortPayloads(t *testing.T) {
	if _, err := DecodeHello([]byte{1, 2}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short hello = %v", err)
	}
	if _, err := DecodeHelloAck([]byte{1}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short hello-ack = %v", err)
	}
	if _, err := DecodeChunk([]byte{1, 2, 3}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short chunk = %v", err)
	}
	if _, err := DecodeSeal(nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short seal = %v", err)
	}
	if _, err := DecodeBye(nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short bye = %v", err)
	}
	// The sequence-only 8-byte BYE of the first protocol draft has no
	// encoder; it is a malformed frame like any other wrong length.
	if _, err := DecodeBye(EncodeBye(Bye{Seq: 3})[:8]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("8-byte bye = %v, want ErrBadFrame", err)
	}
	if _, err := DecodeAck(nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short ack = %v", err)
	}
}

func TestCodeStringsAreTyped(t *testing.T) {
	for code, want := range map[Code]string{
		CodeOK:          "INGEST_OK",
		CodeBadFrame:    "INGEST_BAD_FRAME",
		CodeUnsupported: "INGEST_UNSUPPORTED",
		CodeSequence:    "INGEST_SEQUENCE_ERR",
		CodeOverloaded:  "INGEST_OVERLOADED",
		CodeSealed:      "INGEST_SEALED",
	} {
		if code.String() != want {
			t.Errorf("%d.String() = %q, want %q", uint32(code), code, want)
		}
	}
}

func TestSanitizeRunID(t *testing.T) {
	for in, want := range map[string]string{
		"":                "run",
		"..":              "run",
		"../../etc":       "_.._etc", // leading dots trimmed, slashes mapped
		"host-1_run.2":    "host-1_run.2",
		"spaces and/more": "spaces_and_more",
	} {
		if got := sanitizeRunID(in); got != want {
			t.Errorf("sanitizeRunID(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestAppendChunkFrame: the append-style helper produces the bytes
// WriteFrame puts on the wire for the same chunk, after whatever the
// buffer already holds.
func TestAppendChunkFrame(t *testing.T) {
	ck := Chunk{Seq: 1 << 40, Thread: -2, Samples: 256, Block: bytes.Repeat([]byte("block"), 500)}
	var want bytes.Buffer
	if err := WriteFrame(&want, MsgChunk, EncodeChunk(ck)); err != nil {
		t.Fatal(err)
	}
	got := AppendChunkFrame([]byte("prefix"), ck)
	if !bytes.Equal(got, append([]byte("prefix"), want.Bytes()...)) {
		t.Fatalf("AppendChunkFrame: %d bytes; WriteFrame wrote %d", len(got), want.Len())
	}
}

// TestReadFrameOwnership: WriteFrame and psxd's connection handlers
// share pooled buffers among themselves, never with a ReadFrame caller:
// a payload it returned stays intact whatever is read or written next.
func TestReadFrameOwnership(t *testing.T) {
	var buf bytes.Buffer
	first := bytes.Repeat([]byte{0xaa}, 300)
	WriteFrame(&buf, MsgChunk, first)
	WriteFrame(&buf, MsgChunk, bytes.Repeat([]byte{0xbb}, 300))
	_, kept, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	body := frameBodies.Get()
	if _, _, err := ReadFrameInto(&buf, body); err != nil {
		t.Fatal(err)
	}
	frameBodies.Put(body)
	WriteFrame(io.Discard, MsgChunk, bytes.Repeat([]byte{0xcc}, 300))
	if !bytes.Equal(kept, first) {
		t.Fatal("a payload ReadFrame returned was overwritten")
	}
}
