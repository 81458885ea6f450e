# Offline, stdlib-only module: every target is plain go tooling.

GO ?= go

.PHONY: build test check race size fuzz-read bench bench-check bench-e2e chaos chaos-hang chaos-net chaos-disk chaos-load obs-demo psxd-demo

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# check is the pre-merge gate for the lock-free measurement path: vet,
# here and for two other targets — arm64, whose asmdecl pass checks the
# frame-pointer walk's assembly, and 386, which builds the
# runtime.Callers fallback every target without frame pointers uses —
# then a build for arm64, 386 and riscv64, because vet passes a Go
# declaration whose assembly body no file of that target provides and
# only the build fails it: the fallbacks of the TSC read and of
# relstore's release store are compiled there and nowhere else (the
# build cross-compiles with the local toolchain and fetches nothing);
# then the race detector over the packages a recorded event passes
# through — omp, collector, perf, tool, degrade and ingest, the
# free list perf, tool and ingest keep their buffers in, and relstore,
# which is sync/atomic's Store under the detector — and over
# super, whose wait records every team thread registers and clears
# through omp's one wait bracket, at one, two and four Ps, because the
# single-writer publish, the chunk-recycle
# gate, the governor's level word (every event thread loads it while
# the tick goroutine stores it), the supervisor's shared maps and psxd's per-run trio of connection
# handlers, writer and housekeeper (one ledger and one ack path between
# them) are protocols between goroutines, and a schedule one width never produces is a schedule
# never checked (the race build also turns on checkptr, which checks
# every pointer the frame-pointer walk follows) — and the root
# package's oracle tests at the same three
# widths, because a nested region borrows the encountering thread's
# descriptor across goroutines and the oracle is the program that
# nests — then fifty more rounds of the attach/detach join test at
# each width, because a join lost between two attachments showed up in
# only a few runs in a thousand — then the format gate. Nothing in tool or cmd writes v1 any more
# (every write path is walked block by block), nor PSX2 version 5, so
# they live on only as something the readers must keep opening: the
# checked-in v1 and PSX2 version-5 fixtures (and no PSX2 fixture outside
# the readers' window), v1 and PSX2 blocks of versions 5 and 6 mixed in
# one stream, arbitrary samples (times that go back, events that share a
# table slot) at the nanosecond and rounded to the clock's quantum, the
# time column at its edges (all-zero deltas, every delta escaping, each
# block's shift), stacks on any event and joins without one, repeats and
# shared frames, and each refusal; every PSX2 version outside the window,
# and every flag bit but the flate bit and the shift's, must be refused
# by the readers and the skim alike, and every
# writer/reader pairing must read back through
# the auto-detecting reader, and no header may make the reader size
# its slab past what the stream's bytes allow; a torn tail must be the
# typed count mismatch, from a byte reader and from a file, and a file
# that grows while it is read must be read as the skim found it. Last, the
# allocation guards: what psxd's per-chunk count check, the trace
# reader and Timelines may allocate per sample, and what a chunk may
# allocate on its way from the recording thread through the encoder and
# the sender's frame to psxd's writer and back to the process's block
# pool on its ack, what a warm attach, segment and detach may allocate
# per chunk and a second psxd connection per frame once the pools have
# outlived a GC, and what an empty region, a parallel-for and a
# region's critical, single and ordered constructs may allocate. They skip themselves
# under -race (the detector changes what an allocation costs), so this
# is the run that enforces them.
#
# The timing tests run on fake time (internal/faketime), in
# testing/synctest bubbles. Go 1.24 puts testing/synctest behind
# GOEXPERIMENT=synctest, and go.mod stays at go 1.22, because raising
# it would make bench/run.sh's build rewrite bench/go.mod. Without the
# experiment, faketime.Run runs each such test in a build of its
# package that has it, so every target here runs them. check also vets
# with the experiment on, the only build that compiles
# internal/faketime/bubble.go, and runs the race line once more with it
# on for the packages whose tests use bubbles, so that those tests run
# in-process at each width.
check:
	$(GO) vet ./...
	GOEXPERIMENT=synctest $(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=386 $(GO) build ./...
	GOARCH=riscv64 $(GO) build ./...
	$(GO) test -race -cpu 1,2,4 ./internal/omp ./internal/super ./internal/collector ./internal/perf ./internal/tool ./internal/degrade ./internal/ingest ./internal/freelist ./internal/relstore
	GOEXPERIMENT=synctest $(GO) test -race -cpu 1,2,4 ./internal/super ./internal/tool ./internal/degrade ./internal/ingest
	$(GO) test -race -cpu 1,2,4 -run 'PathOracle' .
	$(GO) test -race -cpu 1,2,4 -count=50 -run 'TestEveryJoinStoredWhileAttachingAndDetaching$$' ./internal/tool
	$(GO) test -count=1 ./internal/faultinject -run 'EveryWritePathWritesPSX2'
	$(GO) test -count=1 ./internal/perf . -run 'V1Fixture|PSX2Version5Fixture|FixturesMatchWindow|SkimRefusesWhatReadersRefuse|V5RoundTrip|V6RoundTrip|V5Refusals|V2CrossRead|MixedStream|V2TornTail|ForgedCount|CountMismatch|AsSkimmed|FixtureReportGolden'
	$(GO) test -count=1 ./internal/omp ./internal/perf ./internal/analysis ./internal/tool ./internal/ingest ./cmd/ompreport -run 'Alloc'

# chaos runs the deterministic fault-injection suite — panicking and
# hung callbacks, failing/torn trace writes, forced chunk drops —
# under the race detector, bounded to one pass so it stays CI-sized.
chaos:
	$(GO) test -race -count=1 ./internal/faultinject ./internal/tool -run 'Chaos|Stream|Truncated'
	$(GO) test -race -count=1 ./internal/perf -run TraceStream

# chaos-hang runs the hang-supervision suite: injected AB-BA lock
# cycles, dropped mpi messages and barrier no-shows must each be
# diagnosed and salvaged within the wall-clock cap; the false-positive
# workload must never trip the watchdog. The cap guards the suite's
# own contract — hangs are detected, not waited out. The salvage's
# report lands beside the traces it explains and nowhere else, and the
# offline readers render it from there.
chaos-hang:
	$(GO) test -race -count=1 -timeout 120s ./internal/faultinject -run 'ChaosHang'
	$(GO) test -race -count=1 -timeout 120s ./internal/super ./internal/mpi
	$(GO) test -race -count=1 -timeout 120s ./internal/tool -run 'HangSalvage'
	$(GO) test -count=1 -run 'CLIReportsHang' .

# chaos-net runs the network-edge chaos suite for the psxd ingestion
# path: a dead server at attach, a server dying mid-run, a slow link,
# and a mid-chunk disconnect — each with exact drop accounting and
# byte-identical mirrored run directories, under the race detector and
# a hard wall-clock cap.
chaos-net:
	$(GO) test -race -count=1 -timeout 120s ./internal/faultinject -run 'ChaosNet'
	$(GO) test -race -count=1 -timeout 120s ./internal/tool -run 'Ingest|DetachPrompt'
	$(GO) test -race -count=1 -timeout 120s ./internal/ingest

# chaos-disk runs the durable-storage chaos suite: the daemon is
# killed mid-chunk and at manifest seal, restarted over the same data
# dir, and must replay its journal, truncate the torn tail to the last
# valid entry, and let the reconnecting client resend exactly what was
# lost — byte-identical to a local tee. ENOSPC on one run must
# quarantine only that run. Race detector + hard wall-clock cap.
chaos-disk:
	$(GO) test -race -count=1 -timeout 120s ./internal/faultinject -run 'ChaosDisk'
	$(GO) test -race -count=1 -timeout 120s ./internal/ingest -run 'Recover|Journal|Durable|Fsync|Retention|Manifest|Hello|Sync|Close'
	$(GO) test -race -count=1 -timeout 120s ./cmd/psxd

# chaos-load runs the overload chaos suite for always-on profiling:
# the adaptive governor must converge under its overhead ceiling
# through observable ladder steps, a psxd outage longer than the
# in-memory queue must lose nothing (store-and-forward spill, byte-
# identical replay, exact conservation accounting), and a burst flood
# into an overloaded daemon must shed with exact counts while the
# seal/BYE control frames always land. Race detector + wall-clock cap.
chaos-load:
	$(GO) test -race -count=1 -timeout 120s ./internal/faultinject -run 'ChaosLoad'
	$(GO) test -race -count=1 -timeout 120s ./internal/degrade
	$(GO) test -race -count=1 -timeout 120s ./internal/tool -run 'Governor|Spill|Conservation|OptionsFromEnv|ParseOverheadCeiling'
	$(GO) test -race -count=1 -timeout 120s ./internal/ingest -run 'Overload|Heartbeat'

# fuzz-read fuzzes the trace readers for half a minute past the seed
# corpus: ReadTraceStream's slab and one-table-per-trace commit against
# a TraceReader's blocks, sample for sample and error for error, the
# round trips of whatever it reads whole, and the skim against the
# decoder: a stream read after its skim and one read without it agree,
# and CountStreamSamples counts whatever the reader reads. -fuzzminimizetime 0 turns off input minimisation, which
# stalled the run at 0 execs/s for much of its budget; a crashing input
# is still saved, only unminimised.
fuzz-read:
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime 30s -fuzzminimizetime 0 ./internal/perf

# race runs the detector over everything (slower; check covers the
# concurrency-critical packages).
race:
	$(GO) test -race ./...

# size prints code lines per package and for the tree outside bench/:
# non-blank, non-comment, non-test Go lines. Size targets in ROADMAP.md
# are stated in this unit, so deleting comments does not move them.
size:
	$(GO) run ./internal/size

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-check compiles, vets and tests the pipeline benchmark harness.
# bench/ is its own module, so `go build ./...` and `go test ./...` at
# the root never see it; this is what catches a refactor that breaks a
# function the harness pins (bench/README.md).
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# bench-e2e runs every workload of the pipeline benchmark once, briefly:
# a smoke of the whole path from the recording thread to the report,
# with the harness's own correctness checks. The per-layer probes
# (perf.encode_*, perf.*_bytes_per_event, ...) are where the encodings
# are compared; see bench/README.md.
bench-e2e:
	bash bench/run.sh --workload all --quick

# obs-demo runs an EPCC sweep with the live observability plane on a
# known port; scrape /metrics or follow it from another terminal with:
#   go run ./cmd/ompreport -follow 127.0.0.1:9461
obs-demo:
	$(GO) run ./cmd/epccbench -threads 2,4 -obs 127.0.0.1:9461

# psxd-demo starts the ingestion daemon, streams two instrumented
# processes into it over TCP, prints the merged run registry, and
# shuts the daemon down. The daemon's obs plane is on 127.0.0.1:9471
# (/runs, /metrics, cross-run /profile) while it runs.
psxd-demo: build
	$(GO) build -o /tmp/psxd ./cmd/psxd
	@rm -rf /tmp/psxd-demo-data
	/tmp/psxd -listen 127.0.0.1:9470 -dir /tmp/psxd-demo-data -obs 127.0.0.1:9471 & \
	PSXD=$$!; sleep 0.5; \
	$(GO) run ./cmd/ompprof -ingest 127.0.0.1:9470 -run demo-a -threads 2; \
	$(GO) run ./cmd/ompprof -ingest 127.0.0.1:9470 -run demo-b -threads 4; \
	curl -s http://127.0.0.1:9471/runs || true; echo; \
	kill -INT $$PSXD; wait $$PSXD || true
