package omp

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// OpenMP environment-variable configuration: real OpenMP runtimes read
// their ICVs from OMP_* variables at startup. ConfigFromEnv builds a
// Config the same way, so command-line tools and tests can configure
// the runtime exactly as an OpenMP user would.
//
// Recognized variables:
//
//	OMP_NUM_THREADS=n            team size
//	OMP_SCHEDULE=kind[,chunk]    schedule for ScheduleRuntime loops
//	OMP_NESTED=true|false        true nested parallel regions
//	OMP_WAIT_POLICY=active|passive   barrier spin budget before parking
//
// Extension variables for the collector behaviour:
//
//	GOMP_ATOMIC_EVENTS=true|false    atomic wait events (§IV-C.7)
//	GOMP_LOOP_EVENTS=true|false      worksharing loop events (§VI)
//	GOMP_CALLBACK_BUDGET=duration    callback watchdog budget (e.g. 100us)
//	GOMP_WATCHDOG_SAMPLE=n           watchdog sampling interval
//
// What the tool measures and what that may cost (GOMP_OVERHEAD_CEILING
// and the other tool knobs) is the tool's to parse: tool.OptionsFromEnv.

// ConfigFromEnv parses the OpenMP environment variables from lookup
// (typically os.LookupEnv) over the given base configuration. Unset
// variables leave the base value; malformed values return an error
// naming the variable.
func ConfigFromEnv(base Config, lookup func(string) (string, bool)) (Config, error) {
	cfg := base
	if v, ok := lookup("OMP_NUM_THREADS"); ok {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || n < 1 {
			return cfg, fmt.Errorf("omp: bad OMP_NUM_THREADS %q", v)
		}
		cfg.NumThreads = n
	}
	if v, ok := lookup("OMP_SCHEDULE"); ok {
		sched, chunk, err := ParseSchedule(v)
		if err != nil {
			return cfg, err
		}
		cfg.Schedule = sched
		cfg.Chunk = chunk
	}
	if v, ok := lookup("OMP_NESTED"); ok {
		b, err := ParseBool(v)
		if err != nil {
			return cfg, fmt.Errorf("omp: bad OMP_NESTED %q", v)
		}
		cfg.Nested = b
	}
	if v, ok := lookup("OMP_WAIT_POLICY"); ok {
		switch strings.ToLower(strings.TrimSpace(v)) {
		case "active":
			cfg.SpinBarrier = true
		case "passive":
			cfg.SpinBarrier = false
		default:
			return cfg, fmt.Errorf("omp: bad OMP_WAIT_POLICY %q", v)
		}
	}
	if v, ok := lookup("GOMP_ATOMIC_EVENTS"); ok {
		b, err := ParseBool(v)
		if err != nil {
			return cfg, fmt.Errorf("omp: bad GOMP_ATOMIC_EVENTS %q", v)
		}
		cfg.AtomicEvents = b
	}
	if v, ok := lookup("GOMP_LOOP_EVENTS"); ok {
		b, err := ParseBool(v)
		if err != nil {
			return cfg, fmt.Errorf("omp: bad GOMP_LOOP_EVENTS %q", v)
		}
		cfg.LoopEvents = b
	}
	if v, ok := lookup("GOMP_CALLBACK_BUDGET"); ok {
		d, err := time.ParseDuration(strings.TrimSpace(v))
		if err != nil || d < 0 {
			return cfg, fmt.Errorf("omp: bad GOMP_CALLBACK_BUDGET %q", v)
		}
		cfg.CallbackBudget = d
	}
	if v, ok := lookup("GOMP_WATCHDOG_SAMPLE"); ok {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || n < 1 {
			return cfg, fmt.Errorf("omp: bad GOMP_WATCHDOG_SAMPLE %q", v)
		}
		cfg.WatchdogSample = n
	}
	return cfg, nil
}

// ParseSchedule parses an OMP_SCHEDULE value: "kind" or "kind,chunk"
// with kind one of static, dynamic, guided, steal (case-insensitive).
// An unknown kind is an error naming the kinds accepted — never a
// silent fallback to a default schedule.
func ParseSchedule(v string) (Schedule, int, error) {
	parts := strings.SplitN(v, ",", 2)
	var sched Schedule
	switch strings.ToLower(strings.TrimSpace(parts[0])) {
	case "static":
		sched = ScheduleStatic
	case "dynamic":
		sched = ScheduleDynamic
	case "guided":
		sched = ScheduleGuided
	case "steal":
		sched = ScheduleSteal
	default:
		return 0, 0, fmt.Errorf("omp: bad OMP_SCHEDULE kind %q (want static, dynamic, guided or steal)", parts[0])
	}
	chunk := 0
	if len(parts) == 2 {
		c, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil || c < 1 {
			return 0, 0, fmt.Errorf("omp: bad OMP_SCHEDULE chunk %q", parts[1])
		}
		chunk = c
	}
	return sched, chunk, nil
}

// ParseBool parses a boolean environment value: true/1/yes/on or
// false/0/no/off, case-insensitive. Every OMP_* and GOMP_* boolean goes
// through it, so the knobs share one truth table.
func ParseBool(v string) (bool, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "true", "1", "yes", "on":
		return true, nil
	case "false", "0", "no", "off":
		return false, nil
	}
	return false, fmt.Errorf("not a boolean: %q", v)
}
