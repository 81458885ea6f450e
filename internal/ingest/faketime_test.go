//go:debug asynctimerchan=0

package ingest

import (
	"net"
	"testing"

	"goomp/internal/faketime"
)

// The directive above is the one faketime.Run needs; see its package.
func TestMain(m *testing.M) { faketime.Main(m) }

// servePipe starts a Server on an in-memory listener, which a test in
// a bubble can share with its clients, and returns the Server and a
// dialer for it.
func servePipe(t *testing.T, opts Options) (*Server, func() net.Conn) {
	t.Helper()
	lis := faketime.NewListener()
	srv, err := ServeListener(lis, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, func() net.Conn {
		c, err := lis.Dial("")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}
