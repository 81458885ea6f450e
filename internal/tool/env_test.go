package tool

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func lookupMap(m map[string]string) func(string) (string, bool) {
	return func(k string) (string, bool) {
		v, ok := m[k]
		return v, ok
	}
}

func TestOptionsFromEnv(t *testing.T) {
	opts, err := OptionsFromEnv(Options{}, lookupMap(map[string]string{
		"GOMP_OVERHEAD_CEILING": "2%",
		"GOMP_INGEST_ADDR":      "127.0.0.1:9470",
		"GOMP_INGEST_DURABLE":   "on",
		"GOMP_TRACE_COMPRESS":   "1",
		"GOMP_OBS_ADDR":         "127.0.0.1:9471",
		"GOMP_HANG_TIMEOUT":     "30s",
		"GOMP_HANG_DIR":         "/tmp/hang",
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		OverheadCeiling: 0.02,
		IngestAddr:      "127.0.0.1:9470", IngestDurable: true, TraceCompress: true,
		ObsAddr: "127.0.0.1:9471", HangTimeout: 30 * time.Second, HangDir: "/tmp/hang",
	}
	if !reflect.DeepEqual(opts, want) {
		t.Errorf("options = %+v, want %+v", opts, want)
	}

	// An explicit off spelling turns a boolean off over a base that had
	// it on.
	opts, err = OptionsFromEnv(Options{IngestDurable: true, TraceCompress: true}, lookupMap(map[string]string{
		"GOMP_INGEST_DURABLE": "0",
		"GOMP_TRACE_COMPRESS": "off",
	}))
	if err != nil || opts.IngestDurable || opts.TraceCompress {
		t.Errorf("off spellings: %+v, %v", opts, err)
	}
}

func TestOptionsFromEnvDefaultsPreserved(t *testing.T) {
	base := Options{OverheadCeiling: 0.1, HangDir: "keep", IngestAddr: "127.0.0.1:1"}
	opts, err := OptionsFromEnv(base, lookupMap(nil))
	if err != nil {
		t.Fatal(err)
	}
	if opts.OverheadCeiling != 0.1 || opts.HangDir != "keep" || opts.IngestAddr != "127.0.0.1:1" {
		t.Errorf("empty env changed options: %+v", opts)
	}
}

func TestOptionsFromEnvErrors(t *testing.T) {
	// Malformed knobs are named errors, never silent defaults — the
	// OMP_SCHEDULE discipline.
	bad := []map[string]string{
		{"GOMP_OVERHEAD_CEILING": "0"},
		{"GOMP_OVERHEAD_CEILING": "150%"},
		{"GOMP_OVERHEAD_CEILING": "lots"},
		{"GOMP_INGEST_DURABLE": "durable"},
		{"GOMP_TRACE_COMPRESS": "maybe"},
		{"GOMP_HANG_TIMEOUT": "soon"},
		{"GOMP_HANG_TIMEOUT": "-1s"},
	}
	for _, env := range bad {
		_, err := OptionsFromEnv(Options{}, lookupMap(env))
		if err == nil {
			t.Errorf("env %v accepted", env)
			continue
		}
		for k := range env {
			if !strings.Contains(err.Error(), k) {
				t.Errorf("env %v: error does not name the knob: %v", env, err)
			}
		}
	}
}

func TestParseOverheadCeiling(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"0.02", 0.02, true},
		{" 0.5 ", 0.5, true},
		{"1", 1, true},
		{"2%", 0.02, true},
		{"100%", 1, true},
		{" 5 % ", 0.05, true},
		{"0", 0, false},
		{"0%", 0, false},
		{"-0.1", 0, false},
		{"1.5", 0, false},
		{"150%", 0, false},
		{"lots", 0, false},
		{"%", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseOverheadCeiling(c.in)
		if c.ok {
			if err != nil || got != c.want {
				t.Errorf("ParseOverheadCeiling(%q) = %v, %v; want %v", c.in, got, err, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParseOverheadCeiling(%q) accepted as %v", c.in, got)
			continue
		}
		// The error must name the knob, matching the OMP_SCHEDULE style:
		// a typo is diagnosable from the message alone.
		if !strings.Contains(err.Error(), "GOMP_OVERHEAD_CEILING") || !strings.Contains(err.Error(), c.in) {
			t.Errorf("ParseOverheadCeiling(%q) error does not name the knob and value: %v", c.in, err)
		}
	}
}
