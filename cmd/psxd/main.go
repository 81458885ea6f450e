// Command psxd is the fleet-scale trace ingestion daemon: many
// instrumented processes (ompprof -ingest, or any tool.Attach with
// Options.IngestAddr) ship their sealed trace chunks here over TCP,
// and psxd writes one directory per run of the same per-thread
// trace.N.psxt files a local StreamDir holds — read them back with
// ompreport (-samples to list them) or perf.ReadTraceStream. With -obs
// it also serves the merged observability plane: /metrics (fleet and
// per-run ingest counters), /runs (the run registry as JSON) and
// /profile (the cross-run region profile, ?run=ID to scope).
//
// Storage is durable and self-healing: every run directory carries an
// append-only journal and a manifest, a restarted daemon replays the
// journal and truncates torn tails before listening, and -fsync /
// -retain-bytes / -retain-age control the durability and retention
// policy. SIGINT/SIGTERM drain gracefully, bounded by -drain-timeout.
//
// Usage:
//
//	psxd [-listen 127.0.0.1:9470] [-dir psxd-data] [-obs HOST:PORT]
//	     [-queue 64] [-max-conns 128] [-backpressure DUR]
//	     [-fsync never|seal|every-N] [-retain-bytes N] [-retain-age DUR]
//	     [-housekeep DUR] [-drain-timeout DUR] [-heartbeat-timeout DUR]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"goomp/internal/ingest"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its edges injected so the drain path is testable:
// it serves until SIGINT/SIGTERM, drains within -drain-timeout, and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psxd", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:9470", "ingest listen address (host:port; :0 picks a free port)")
	dir := fs.String("dir", "psxd-data", "root data directory; each run writes its own subdirectory")
	obsAddr := fs.String("obs", os.Getenv("GOMP_OBS_ADDR"), "serve the merged observability plane (/metrics, /runs, /profile) on this host:port; defaults to $GOMP_OBS_ADDR, empty disables")
	queue := fs.Int("queue", 0, "per-run ingest queue depth in frames (0 means the default)")
	maxConns := fs.Int("max-conns", 0, "concurrent client connection bound (0 means the default)")
	backpressure := fs.Duration("backpressure", 0, "how long a full run queue stalls a connection's reads before dropping (0 means the default)")
	heartbeatTimeout := fs.Duration("heartbeat-timeout", 0, "reap a connection with no readable frame for this long (clients heartbeat every second while idle; 0 means the default 30s, negative disables)")
	fsync := fs.String("fsync", "seal", "fsync policy: never, seal (at stream seals and run end), or every-N (group-commit every N chunks); durable-ack runs always sync before acking")
	retainBytes := fs.Int64("retain-bytes", 0, "GC completed runs oldest-first once the data directory exceeds this many bytes (0 disables)")
	retainAge := fs.Duration("retain-age", 0, "GC completed runs idle longer than this (0 disables)")
	housekeep := fs.Duration("housekeep", 0, "retention sweep period (0 means the default)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "bound on the shutdown drain: how long to wait for run writers to land and seal queued chunks (0 waits forever)")
	fs.Parse(args)

	policy, err := ingest.ParseFsyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(stderr, "psxd:", err)
		return 2
	}
	srv, err := ingest.Serve(*listen, ingest.Options{
		Dir:               *dir,
		MaxConns:          *maxConns,
		QueueDepth:        *queue,
		BackpressureWait:  *backpressure,
		HeartbeatTimeout:  *heartbeatTimeout,
		ObsAddr:           *obsAddr,
		Fsync:             policy,
		RetainBytes:       *retainBytes,
		RetainAge:         *retainAge,
		HousekeepInterval: *housekeep,
	})
	if err != nil {
		fmt.Fprintln(stderr, "psxd:", err)
		return 1
	}
	fmt.Fprintf(stdout, "psxd ingesting on %s, data under %s (fsync=%s)\n", srv.Addr(), *dir, policy)
	if rec := srv.Recovered(); rec.Runs > 0 {
		fmt.Fprintf(stdout, "recovered %d run(s) from %s, %d salvaged from torn tails\n", rec.Runs, *dir, rec.Salvaged)
	}
	if url := srv.ObsURL(); url != "" {
		fmt.Fprintf(stdout, "observability plane at %s (/runs for the registry)\n", url)
	}

	// SIGINT and SIGTERM both mean drain: stop accepting, let every run
	// writer land and sync what is queued, bounded by -drain-timeout so
	// a stalled disk cannot wedge shutdown (the journal makes whatever
	// is abandoned recoverable on the next start).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	<-sig
	fmt.Fprintln(stderr, "psxd: shutting down")
	exit := 0
	if err := srv.CloseWithin(*drainTimeout); err != nil {
		fmt.Fprintln(stderr, "psxd:", err)
		exit = 1
	}
	// Leave a final registry line so a scripted run sees what landed.
	for _, ri := range srv.Runs() {
		state := "open"
		if ri.Complete {
			state = "complete"
		}
		if ri.Salvaged {
			state += ", salvaged"
		}
		if ri.Quarantined {
			state += ", quarantined"
		}
		unstored := "" // what closing the books against the client's BYE left over
		if ri.Unstored != nil {
			unstored = "; " + ri.Unstored.String()
		}
		fmt.Fprintf(stdout, "run %s (%s): %d chunks, %d samples, %d bytes, %d dropped, age %s%s\n",
			ri.ID, state, ri.Chunks, ri.Samples, ri.Bytes, ri.DroppedChunks,
			time.Since(ri.Started).Round(time.Millisecond), unstored)
	}
	return exit
}
