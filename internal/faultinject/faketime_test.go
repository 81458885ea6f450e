//go:debug asynctimerchan=0

package faultinject_test

import (
	"net"
	"testing"

	"goomp/internal/faketime"
	"goomp/internal/ingest"
)

// The directive above is the one faketime.Run needs; see its package.
func TestMain(m *testing.M) { faketime.Main(m) }

// servePipe runs an ingest server over dir on an in-memory listener,
// for a test on fake time, and returns it with a dialer for it. The
// test closes it, inside its bubble.
func servePipe(t *testing.T, opts ingest.Options) (*ingest.Server, func(string) (net.Conn, error)) {
	t.Helper()
	lis := faketime.NewListener()
	srv, err := ingest.ServeListener(lis, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, lis.Dial
}

// completedRun is waitRunDone on fake time: once every goroutine of
// the bubble has settled, the run must be complete.
func completedRun(t *testing.T, srv *ingest.Server, run string) ingest.RunInfo {
	t.Helper()
	faketime.Wait()
	for _, ri := range srv.Runs() {
		if ri.ID == run && ri.Complete {
			return ri
		}
	}
	t.Fatalf("run %q not complete; registry: %+v", run, srv.Runs())
	return ingest.RunInfo{}
}
