package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"goomp/internal/perf"
)

// traceBlock renders one valid PSXT block of n samples for thread.
func traceBlock(t *testing.T, thread int32, n int) []byte {
	t.Helper()
	buf := perf.NewTraceBuffer(n, 0)
	for i := 0; i < n; i++ {
		buf.Append(perf.Sample{
			Time: int64(i + 1), Thread: thread, Event: 0, State: -1,
			Region: uint64(i), StackID: perf.NoStack,
		})
	}
	var out bytes.Buffer
	if err := perf.WriteTrace(&out, buf); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// testClient is a handrolled protocol client for exercising the server
// without the tool-side sink.
type testClient struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func dialClient(t *testing.T, addr, run string) (*testClient, HelloAck) {
	t.Helper()
	return dialFlags(t, addr, run, 0)
}

// greet sends a HELLO for run on c, with flags as its capability
// trailer when they are not zero, and reads the HELLO-ACK.
func greet(t *testing.T, c net.Conn, run string, flags uint32) (*testClient, HelloAck) {
	t.Helper()
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

func (tc *testClient) send(kind uint8, payload []byte) Ack {
	tc.t.Helper()
	if err := WriteFrame(tc.c, kind, payload); err != nil {
		tc.t.Fatal(err)
	}
	k, p, err := ReadFrame(tc.br)
	if err != nil {
		tc.t.Fatal(err)
	}
	if k != MsgAck {
		tc.t.Fatalf("response kind = %d, want ACK", k)
	}
	ack, err := DecodeAck(p)
	if err != nil {
		tc.t.Fatal(err)
	}
	return ack
}

func (tc *testClient) close() { tc.c.Close() }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// serveTCP is servePipe over a loopback TCP listener.
func serveTCP(t *testing.T, opts Options) (*Server, func() net.Conn) {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, func() net.Conn {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

// TestServerIngestEndToEnd runs one run's HELLO, chunk, heartbeat, seal
// and BYE over TCP and over the in-memory listener the fake-time tests
// use. Both go through ServeListener, and must give the same acks and
// the same bytes on disk.
func TestServerIngestEndToEnd(t *testing.T) {
	for _, tr := range []struct {
		name  string
		serve func(*testing.T, Options) (*Server, func() net.Conn)
	}{{"tcp", serveTCP}, {"pipe", servePipe}} {
		t.Run(tr.name, func(t *testing.T) { testIngestEndToEnd(t, tr.serve) })
	}
}

func testIngestEndToEnd(t *testing.T, serve func(*testing.T, Options) (*Server, func() net.Conn)) {
	dir := t.TempDir()
	srv, dial := serve(t, Options{Dir: dir})
	defer srv.Close()

	tc, ha := greet(t, dial(), "run-a", 0)
	defer tc.close()
	if ha.Code != CodeOK || ha.LastSeq != 0 {
		t.Fatalf("hello-ack = %+v, want OK/0", ha)
	}

	block := traceBlock(t, 0, 5)
	if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: block})); ack.Code != CodeOK || ack.Seq != 1 {
		t.Fatalf("chunk ack = %+v", ack)
	}
	if ack := tc.send(MsgHeartbeat, nil); ack.Code != CodeOK {
		t.Fatalf("heartbeat ack = %+v", ack)
	}
	if ack := tc.send(MsgSeal, EncodeSeal(Seal{Seq: 2, Thread: 0})); ack.Code != CodeOK {
		t.Fatalf("seal ack = %+v", ack)
	}
	if ack := tc.send(MsgBye, EncodeBye(Bye{Seq: 3})); ack.Code != CodeOK {
		t.Fatalf("bye ack = %+v", ack)
	}
	waitFor(t, "run completion", func() bool {
		runs := srv.Runs()
		return len(runs) == 1 && runs[0].Complete
	})

	runs := srv.Runs()
	ri := runs[0]
	if ri.ID != "run-a" || ri.Chunks != 1 || ri.Samples != 5 || ri.SealedThreads != 1 {
		t.Fatalf("run info = %+v", ri)
	}
	data, err := os.ReadFile(filepath.Join(dir, "run-a", "trace.0.psxt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, block) {
		t.Fatal("ingested file differs from the shipped block bytes")
	}
	buf, err := perf.ReadTraceStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(buf.Samples()); got != 5 {
		t.Fatalf("read back %d samples, want 5", got)
	}
}

func TestServerDedupAndReconnectResume(t *testing.T) {
	dir := t.TempDir()
	srv, err := Serve("127.0.0.1:0", Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	block := traceBlock(t, 1, 3)
	tc, _ := dialClient(t, srv.Addr(), "run-b")
	if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 1, Samples: 3, Block: block})); ack.Code != CodeOK {
		t.Fatalf("chunk ack = %+v", ack)
	}
	// A resend of an already-accepted sequence is acked OK and not
	// re-applied.
	if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 1, Samples: 3, Block: block})); ack.Code != CodeOK {
		t.Fatalf("duplicate ack = %+v", ack)
	}
	tc.close()

	// A reconnect learns the last accepted sequence and continues.
	tc2, ha := dialClient(t, srv.Addr(), "run-b")
	defer tc2.close()
	if ha.LastSeq != 1 {
		t.Fatalf("reconnect hello-ack LastSeq = %d, want 1", ha.LastSeq)
	}
	if ack := tc2.send(MsgChunk, EncodeChunk(Chunk{Seq: 2, Thread: 1, Samples: 3, Block: block})); ack.Code != CodeOK {
		t.Fatalf("post-reconnect chunk ack = %+v", ack)
	}
	waitFor(t, "two chunks landing", func() bool {
		runs := srv.Runs()
		return len(runs) == 1 && runs[0].Chunks == 2
	})
	if ri := srv.Runs()[0]; ri.Samples != 6 {
		t.Fatalf("samples = %d, want 6 (duplicate must not re-apply)", ri.Samples)
	}
}

func TestServerRefusesOutOfProtocolClients(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Data before HELLO is a sequence error.
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	WriteFrame(c, MsgHeartbeat, nil)
	kind, payload, err := ReadFrame(bufio.NewReader(c))
	if err != nil || kind != MsgHelloAck {
		t.Fatalf("kind=%d err=%v", kind, err)
	}
	if ha, _ := DecodeHelloAck(payload); ha.Code != CodeSequence {
		t.Fatalf("pre-HELLO data code = %v, want INGEST_SEQUENCE_ERR", ha.Code)
	}
	c.Close()

	// An unknown protocol version is refused as unsupported.
	c2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	WriteFrame(c2, MsgHello, EncodeHello(Hello{Version: 999, Run: "x"}))
	kind, payload, err = ReadFrame(bufio.NewReader(c2))
	if err != nil || kind != MsgHelloAck {
		t.Fatalf("kind=%d err=%v", kind, err)
	}
	if ha, _ := DecodeHelloAck(payload); ha.Code != CodeUnsupported {
		t.Fatalf("bad version code = %v, want INGEST_UNSUPPORTED", ha.Code)
	}
	c2.Close()
}

func TestServerRefusesDataAfterBye(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tc, _ := dialClient(t, srv.Addr(), "run-c")
	if ack := tc.send(MsgBye, EncodeBye(Bye{Seq: 1})); ack.Code != CodeOK {
		t.Fatalf("bye ack = %+v", ack)
	}
	waitFor(t, "completion", func() bool {
		runs := srv.Runs()
		return len(runs) == 1 && runs[0].Complete
	})
	block := traceBlock(t, 0, 1)
	if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 2, Thread: 0, Samples: 1, Block: block})); ack.Code != CodeSealed {
		t.Fatalf("post-BYE chunk code = %v, want INGEST_SEALED", ack.Code)
	}
	tc.close()
}

// TestSealedRunsRetireTheirWriters: a run's writer exits after the
// batch that seals the run, so a daemon that has served many runs keeps
// no goroutine per finished one. A late resend and a late BYE of a
// retired run are still acked, as duplicates, by the sequencing rules
// alone, anything newer is refused, the books balance, and Close does
// not wait for the writers that are gone.
func TestSealedRunsRetireTheirWriters(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	baseline := runtime.NumGoroutine()

	const runs = 14
	block := traceBlockV2(t, 0, 5, false)
	flagsOf := func(i int) uint32 { return uint32(i%2) * FlagDurable } // every other run durable
	for i := 0; i < runs; i++ {
		tc, _ := dialFlags(t, srv.Addr(), fmt.Sprintf("run-%d", i), flagsOf(i))
		for _, f := range []struct {
			kind    uint8
			payload []byte
		}{
			{MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: block})},
			{MsgSeal, EncodeSeal(Seal{Seq: 2, Thread: 0})},
			{MsgBye, EncodeBye(Bye{Seq: 3, Produced: 1})},
		} {
			if ack := tc.send(f.kind, f.payload); ack.Code != CodeOK {
				t.Fatalf("run %d: frame kind %d acked %v", i, f.kind, ack.Code)
			}
		}
		tc.close()
	}
	waitFor(t, "every sealed run's writer to exit", func() bool { return runtime.NumGoroutine() <= baseline })

	for i := 0; i < 2; i++ {
		tc, ha := dialFlags(t, srv.Addr(), fmt.Sprintf("run-%d", i), flagsOf(i))
		if ha.Code != CodeOK || ha.LastSeq != 3 {
			t.Fatalf("run %d: HELLO-ACK %+v, want OK at 3", i, ha)
		}
		for _, f := range []struct {
			what    string
			kind    uint8
			payload []byte
			want    Code
		}{
			{"late resend", MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: 0, Samples: 5, Block: block}), CodeOK},
			{"late BYE", MsgBye, EncodeBye(Bye{Seq: 3, Produced: 1}), CodeOK},
			{"chunk past the BYE", MsgChunk, EncodeChunk(Chunk{Seq: 4, Thread: 0, Samples: 5, Block: block}), CodeSealed},
			{"second BYE", MsgBye, EncodeBye(Bye{Seq: 5, Produced: 2}), CodeSealed},
		} {
			if ack := tc.send(f.kind, f.payload); ack.Code != f.want {
				t.Fatalf("run %d: %s acked %v, want %v", i, f.what, ack.Code, f.want)
			}
		}
		tc.close()
	}
	for _, ri := range srv.Runs() {
		if !ri.Complete || ri.Chunks != 1 || ri.Unstored != nil {
			t.Fatalf("%s: complete %v, %d chunks, unstored %v; want complete, 1, none", ri.ID, ri.Complete, ri.Chunks, ri.Unstored)
		}
		if late := ri.ID == "run-0" || ri.ID == "run-1"; late && (ri.DuplicateChunks != 1 || ri.RefusedChunks != 1) {
			t.Fatalf("%s: %d duplicate, %d refused chunks; want 1 and 1", ri.ID, ri.DuplicateChunks, ri.RefusedChunks)
		}
	}
	if err := srv.CloseWithin(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestServerObsPlaneMergesRuns(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Options{Dir: t.TempDir(), ObsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i, run := range []string{"alpha", "beta"} {
		tc, _ := dialClient(t, srv.Addr(), run)
		block := traceBlock(t, int32(i), 4)
		if ack := tc.send(MsgChunk, EncodeChunk(Chunk{Seq: 1, Thread: int32(i), Samples: 4, Block: block})); ack.Code != CodeOK {
			t.Fatalf("%s chunk ack = %+v", run, ack)
		}
		tc.close()
	}
	waitFor(t, "both runs landing", func() bool {
		runs := srv.Runs()
		return len(runs) == 2 && runs[0].Chunks == 1 && runs[1].Chunks == 1
	})

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.ObsURL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap RunsSnapshot
	if err := json.Unmarshal(get("/runs"), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Runs) != 2 || snap.Runs[0].ID != "alpha" || snap.Runs[1].ID != "beta" {
		t.Fatalf("/runs = %+v", snap.Runs)
	}

	metrics := string(get("/metrics"))
	for _, want := range []string{
		"goomp_ingest_connections_total",
		`goomp_ingest_run_samples_total{run="alpha"} 4`,
		`goomp_ingest_run_samples_total{run="beta"} 4`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}

	var prof struct {
		Runs    int `json:"runs"`
		Files   int `json:"files"`
		Samples int `json:"samples"`
	}
	if err := json.Unmarshal(get("/profile"), &prof); err != nil {
		t.Fatal(err)
	}
	if prof.Runs != 2 || prof.Files != 2 || prof.Samples != 8 {
		t.Fatalf("/profile = %+v, want 2 runs, 2 files, 8 samples", prof)
	}
	if err := json.Unmarshal(get("/profile?run=alpha"), &prof); err != nil {
		t.Fatal(err)
	}
	if prof.Runs != 1 || prof.Samples != 4 {
		t.Fatalf("/profile?run=alpha = %+v, want 1 run, 4 samples", prof)
	}
}
