// Package faketime lets a test run on fake time: Run runs it in a
// testing/synctest bubble, whose clock moves only when every goroutine
// in the bubble is durably blocked, and Listener is an in-memory
// net.Listener a client and a server in one bubble can share (a real
// socket's waits are not durable, so a bubble cannot use one).
//
// A package whose tests call Run carries, in one test file,
//
//	//go:debug asynctimerchan=0
//	func TestMain(m *testing.M) { faketime.Main(m) }
//
// The directive gives the test binary Go 1.23's synchronous timer
// channels, without which synctest refuses to run while go.mod says
// go 1.22.
package faketime

import (
	"net"
	"sync"
)

// Listener is a net.Listener whose connections are net.Pipe pairs:
// Dial hands one end to Accept and returns the other. Make it inside
// the bubble that uses it.
type Listener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

// NewListener returns an open Listener.
func NewListener() *Listener {
	return &Listener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// Accept waits for a Dial, or returns net.ErrClosed once l is closed.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close stops Accept and Dial. It may be called more than once.
func (l *Listener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr names the listener; Dial ignores the address it is given.
func (l *Listener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// Dial connects to l. Its signature is a network dialer's, so it can
// stand in for one.
func (l *Listener) Dial(string) (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
