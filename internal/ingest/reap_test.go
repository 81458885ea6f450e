package ingest

import (
	"testing"
	"time"

	"goomp/internal/faketime"
)

// The heartbeat tests run on fake time, over an in-memory listener:
// a reap lands at exactly the heartbeat deadline.

// TestHeartbeatReapsHalfOpenConn checks the server-side heartbeat
// deadline: a client that handshakes and then goes silent (a
// half-open connection — process frozen, network partitioned) is
// reaped instead of holding its connection slot forever.
func TestHeartbeatReapsHalfOpenConn(t *testing.T) {
	faketime.Run(t, func(t *testing.T) {
		srv, dial := servePipe(t, Options{Dir: t.TempDir(), HeartbeatTimeout: 100 * time.Millisecond})
		defer srv.Close()
		tc, _ := greet(t, dial(), "half-open", 0)
		defer tc.close()

		// Silence. The server must close the connection from its side,
		// at the deadline: the client's blocking read returns, and the
		// reap is counted.
		start := time.Now()
		if _, _, err := ReadFrame(tc.br); err == nil {
			t.Fatal("server kept a silent connection past its heartbeat deadline")
		}
		if d := time.Since(start); d != 100*time.Millisecond {
			t.Fatalf("reaped after %v of silence, want the 100ms deadline", d)
		}
		if srv.reaped.Load() == 0 {
			t.Fatal("reap not counted")
		}
	})
}

// TestHeartbeatReapBeforeHello covers the other half-open flavor: a
// connection that never even sends its HELLO.
func TestHeartbeatReapBeforeHello(t *testing.T) {
	faketime.Run(t, func(t *testing.T) {
		srv, dial := servePipe(t, Options{Dir: t.TempDir(), HeartbeatTimeout: 100 * time.Millisecond})
		defer srv.Close()
		c := dial()
		defer c.Close()
		start := time.Now()
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatal("server kept a HELLO-less connection past its heartbeat deadline")
		}
		if d := time.Since(start); d != 100*time.Millisecond {
			t.Fatalf("reaped after %v of silence, want the 100ms deadline", d)
		}
		if srv.reaped.Load() == 0 {
			t.Fatal("reap not counted")
		}
	})
}

// TestHeartbeatKeepsLiveConn: a client that heartbeats inside the
// deadline is never reaped, even when idle far longer than the
// deadline in total.
func TestHeartbeatKeepsLiveConn(t *testing.T) {
	faketime.Run(t, func(t *testing.T) {
		srv, dial := servePipe(t, Options{Dir: t.TempDir(), HeartbeatTimeout: 150 * time.Millisecond})
		defer srv.Close()
		tc, _ := greet(t, dial(), "alive", 0)
		defer tc.close()
		for i := 0; i < 8; i++ {
			time.Sleep(50 * time.Millisecond)
			if err := WriteFrame(tc.c, MsgHeartbeat, nil); err != nil {
				t.Fatalf("heartbeat %d: %v", i, err)
			}
			kind, payload, err := ReadFrame(tc.br)
			if err != nil {
				t.Fatalf("heartbeat %d ack: %v", i, err)
			}
			if kind != MsgAck {
				t.Fatalf("heartbeat %d answered with frame kind %d", i, kind)
			}
			if ack, err := DecodeAck(payload); err != nil || ack.Code != CodeOK {
				t.Fatalf("heartbeat %d ack = %+v, %v", i, ack, err)
			}
		}
		if got := srv.reaped.Load(); got != 0 {
			t.Fatalf("reaped %d live connections", got)
		}
	})
}

// TestHeartbeatTimeoutDisabled: a negative timeout turns reaping off;
// a silent connection stays open.
func TestHeartbeatTimeoutDisabled(t *testing.T) {
	faketime.Run(t, func(t *testing.T) {
		srv, dial := servePipe(t, Options{Dir: t.TempDir(), HeartbeatTimeout: -1})
		defer srv.Close()
		tc, _ := greet(t, dial(), "undying", 0)
		defer tc.close()
		time.Sleep(300 * time.Millisecond)
		// Still answering after a silence that would have reaped us under
		// any positive deadline in this file.
		if err := WriteFrame(tc.c, MsgHeartbeat, nil); err != nil {
			t.Fatalf("connection dead after silence with reaping disabled: %v", err)
		}
		if kind, _, err := ReadFrame(tc.br); err != nil || kind != MsgAck {
			t.Fatalf("no ack after silence: kind=%d err=%v", kind, err)
		}
		if got := srv.reaped.Load(); got != 0 {
			t.Fatalf("reaped %d with reaping disabled", got)
		}
	})
}
