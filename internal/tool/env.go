package tool

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"goomp/internal/omp"
)

// Tool-side environment knobs, following the omp.ConfigFromEnv
// discipline: unset variables leave the base value, malformed values
// return an error naming the variable — never a silent default. Each
// GOMP_* variable has one parser: what the runtime enforces (thread
// count, schedule, event toggles, the callback watchdog) is
// omp.ConfigFromEnv's, what the tool measures and may spend is read
// here and nowhere else.
//
//	GOMP_OVERHEAD_CEILING=x    arm the overhead governor (fraction
//	                           "0.02" or percentage "2%" of wall time)
//	GOMP_INGEST_ADDR=host:port ship trace chunks to a psxd daemon
//	GOMP_INGEST_DURABLE=bool   ask the daemon for durable acks
//	GOMP_TRACE_COMPRESS=bool   deflate written trace blocks
//	GOMP_OBS_ADDR=host:port    serve the observability plane
//	GOMP_HANG_TIMEOUT=duration no-progress window of the hang supervisor
//	GOMP_HANG_DIR=path         where a hang salvages without a StreamDir
//
// Booleans take the omp.ParseBool spellings (true/1/yes/on,
// false/0/no/off).

// OptionsFromEnv parses the tool's GOMP_* variables from lookup
// (typically os.LookupEnv) over the given base options.
func OptionsFromEnv(base Options, lookup func(string) (string, bool)) (Options, error) {
	opts := base
	if v, ok := lookup("GOMP_OVERHEAD_CEILING"); ok {
		c, err := ParseOverheadCeiling(v)
		if err != nil {
			return opts, err
		}
		opts.OverheadCeiling = c
	}
	if v, ok := lookup("GOMP_INGEST_ADDR"); ok {
		opts.IngestAddr = strings.TrimSpace(v)
	}
	if v, ok := lookup("GOMP_INGEST_DURABLE"); ok {
		b, err := omp.ParseBool(v)
		if err != nil {
			return opts, fmt.Errorf("tool: bad GOMP_INGEST_DURABLE %q", v)
		}
		opts.IngestDurable = b
	}
	if v, ok := lookup("GOMP_TRACE_COMPRESS"); ok {
		b, err := omp.ParseBool(v)
		if err != nil {
			return opts, fmt.Errorf("tool: bad GOMP_TRACE_COMPRESS %q", v)
		}
		opts.TraceCompress = b
	}
	if v, ok := lookup("GOMP_OBS_ADDR"); ok {
		opts.ObsAddr = strings.TrimSpace(v)
	}
	if v, ok := lookup("GOMP_HANG_TIMEOUT"); ok {
		d, err := time.ParseDuration(strings.TrimSpace(v))
		if err != nil || d < 0 {
			return opts, fmt.Errorf("tool: bad GOMP_HANG_TIMEOUT %q", v)
		}
		opts.HangTimeout = d
	}
	if v, ok := lookup("GOMP_HANG_DIR"); ok {
		opts.HangDir = strings.TrimSpace(v)
	}
	return opts, nil
}

// ParseOverheadCeiling parses a GOMP_OVERHEAD_CEILING value: a
// fraction of wall time like "0.02", or a percentage like "2%", in
// (0, 1] (equivalently (0%, 100%]). A malformed or out-of-range value
// is an error naming the variable and the accepted forms — never a
// silent fallback to an ungoverned run.
func ParseOverheadCeiling(v string) (float64, error) {
	s := strings.TrimSpace(v)
	scale := 1.0
	if strings.HasSuffix(s, "%") {
		s = strings.TrimSpace(strings.TrimSuffix(s, "%"))
		scale = 0.01
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("tool: bad GOMP_OVERHEAD_CEILING %q (want a fraction like 0.02 or a percentage like 2%%)", v)
	}
	f *= scale
	if f <= 0 || f > 1 {
		return 0, fmt.Errorf("tool: bad GOMP_OVERHEAD_CEILING %q (must be in (0, 1], e.g. 0.02 or 2%%)", v)
	}
	return f, nil
}
