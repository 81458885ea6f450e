package omp

import (
	"strings"
	"sync/atomic"
	"testing"
)

func envLookup(m map[string]string) func(string) (string, bool) {
	return func(k string) (string, bool) {
		v, ok := m[k]
		return v, ok
	}
}

func TestConfigFromEnvFull(t *testing.T) {
	cfg, err := ConfigFromEnv(Config{}, envLookup(map[string]string{
		"OMP_NUM_THREADS":    "8",
		"OMP_SCHEDULE":       "dynamic,16",
		"OMP_NESTED":         "true",
		"OMP_WAIT_POLICY":    "active",
		"GOMP_ATOMIC_EVENTS": "on",
		"GOMP_LOOP_EVENTS":   "1",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumThreads != 8 || cfg.Schedule != ScheduleDynamic || cfg.Chunk != 16 {
		t.Errorf("threads/schedule wrong: %+v", cfg)
	}
	if !cfg.Nested || !cfg.SpinBarrier || !cfg.AtomicEvents || !cfg.LoopEvents {
		t.Errorf("booleans wrong: %+v", cfg)
	}
}

func TestConfigFromEnvDefaultsPreserved(t *testing.T) {
	base := Config{NumThreads: 3, Schedule: ScheduleGuided, Chunk: 7, Nested: true}
	cfg, err := ConfigFromEnv(base, envLookup(nil))
	if err != nil {
		t.Fatal(err)
	}
	if cfg != base {
		t.Errorf("empty env changed config: %+v vs %+v", cfg, base)
	}
}

func TestConfigFromEnvPassivePolicy(t *testing.T) {
	cfg, err := ConfigFromEnv(Config{SpinBarrier: true}, envLookup(map[string]string{
		"OMP_WAIT_POLICY": "PASSIVE",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SpinBarrier {
		t.Error("passive policy did not clear SpinBarrier")
	}
}

func TestConfigFromEnvErrors(t *testing.T) {
	bad := []map[string]string{
		{"OMP_NUM_THREADS": "zero"},
		{"OMP_NUM_THREADS": "0"},
		{"OMP_NUM_THREADS": "-2"},
		{"OMP_SCHEDULE": "fancy"},
		{"OMP_SCHEDULE": "static,0"},
		{"OMP_SCHEDULE": "static,x"},
		{"OMP_NESTED": "maybe"},
		{"OMP_WAIT_POLICY": "spinny"},
		{"GOMP_ATOMIC_EVENTS": "2"},
		{"GOMP_LOOP_EVENTS": "nah"},
	}
	for _, env := range bad {
		if _, err := ConfigFromEnv(Config{}, envLookup(env)); err == nil {
			t.Errorf("env %v accepted", env)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	cases := []struct {
		in    string
		sched Schedule
		chunk int
		ok    bool
	}{
		{"static", ScheduleStatic, 0, true},
		{"STATIC, 4", ScheduleStatic, 4, true},
		{"dynamic,1", ScheduleDynamic, 1, true},
		{"guided , 8", ScheduleGuided, 8, true},
		{"steal", ScheduleSteal, 0, true},
		{"Steal, 2", ScheduleSteal, 2, true},
		{"auto", 0, 0, false},
		{"dynamic,", 0, 0, false},
	}
	for _, c := range cases {
		sched, chunk, err := ParseSchedule(c.in)
		if c.ok != (err == nil) {
			t.Errorf("%q: err = %v", c.in, err)
			continue
		}
		if c.ok && (sched != c.sched || chunk != c.chunk) {
			t.Errorf("%q: got (%v, %d), want (%v, %d)", c.in, sched, chunk, c.sched, c.chunk)
		}
	}
}

// Unknown schedule kinds fail with an error that names the accepted
// kinds, so a typo in OMP_SCHEDULE is diagnosable from the message.
func TestParseScheduleUnknownKindError(t *testing.T) {
	_, _, err := ParseSchedule("fancy,4")
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, kind := range []string{"static", "dynamic", "guided", "steal"} {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("error %q does not mention accepted kind %q", err, kind)
		}
	}
}

// Schedule.String is bounds-checked: out-of-range values render as a
// diagnostic instead of panicking.
func TestScheduleStringBounds(t *testing.T) {
	for _, s := range []Schedule{ScheduleStatic, ScheduleDynamic, ScheduleGuided, ScheduleRuntime, ScheduleSteal} {
		if v := s.String(); v == "" {
			t.Errorf("schedule %d renders empty", s)
		}
	}
	if v := Schedule(99).String(); v == "" {
		t.Error("out-of-range schedule renders empty")
	}
	if v := Schedule(-1).String(); v == "" {
		t.Error("negative schedule renders empty")
	}
}

// An env-configured steal schedule actually drives a loop: every
// iteration runs exactly once under schedule(runtime).
func TestEnvConfiguredStealRuns(t *testing.T) {
	cfg, err := ConfigFromEnv(Config{}, envLookup(map[string]string{
		"OMP_NUM_THREADS": "4",
		"OMP_SCHEDULE":    "steal,1",
	}))
	if err != nil {
		t.Fatal(err)
	}
	r := New(cfg)
	defer r.Close()
	counts := make([]int32, 200)
	r.Parallel(func(tc *ThreadCtx) {
		tc.ForSched(len(counts), ScheduleRuntime, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("iteration %d ran %d times", i, c)
		}
	}
}

func TestEnvConfiguredRuntimeRuns(t *testing.T) {
	cfg, err := ConfigFromEnv(Config{}, envLookup(map[string]string{
		"OMP_NUM_THREADS": "3",
		"OMP_SCHEDULE":    "guided,2",
	}))
	if err != nil {
		t.Fatal(err)
	}
	r := New(cfg)
	defer r.Close()
	counts := make([]int32, 100)
	r.Parallel(func(tc *ThreadCtx) {
		tc.ForSched(100, ScheduleRuntime, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				counts[i]++
			}
		})
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("iteration %d ran %d times", i, c)
		}
	}
}
