package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// resultSet is the end-to-end metrics of several runs of each
// workload, one process and one seed per run; baseline/ holds two.
type resultSet struct {
	Host      hostInfo                        `json:"host"`
	Seconds   float64                         `json:"seconds"`
	FirstSeed int64                           `json:"first_seed"`
	Workloads map[string]map[string][]float64 `json:"workloads"` // workload -> metric -> value per run
}

// repeatRuns runs each workload n times, each in a fresh process with
// the next seed, and prints every end-to-end metric's spread the two
// ways a bound is judged by: the distance between the quartiles, and
// the whole range, each as a share of the median.
func repeatRuns(w io.Writer, name string, seed int64, seconds float64, n int, quick bool, setOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	names := workloadNames
	if name != "" && name != "all" {
		names = []string{name}
	}
	set := resultSet{Host: readHost(teamWidth()), Seconds: seconds, FirstSeed: seed, Workloads: map[string]map[string][]float64{}}
	code := 0
	for _, wl := range names {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			args := []string{"-workload", wl, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
			if quick {
				args = append(args, "-quick")
			}
			out, err := exec.Command(exe, args...).Output()
			var res result
			if err == nil {
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				err = json.Unmarshal(lines[len(lines)-1], &res)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", wl, seed+int64(i), err)
				return 1
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Fprintf(w, "%s seed %d: correct=%v, %d of %d failed\n", wl, seed+int64(i), res.Correct, res.Failed, res.Attempted)
				code = 1
			}
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
			}
		}
		set.Workloads[wl] = values
		fmt.Fprintf(w, "%s, %d runs of %g s\n", wl, n, seconds)
		for _, d := range endToEnd {
			s := summarize(d.unit, values[d.name])
			iqr, span := (s.Q3-s.Q1)/s.Median, (s.Max-s.Min)/s.Median
			fmt.Fprintf(w, "  %-22s median %12.6g %-9s quartile spread %6.2f%%  range %6.2f%%  bound >= %.2f\n",
				d.name, s.Median, d.unit, 100*iqr, 100*span, min(0.25, max(0.05, 3*iqr, 2*span)))
		}
	}
	if setOut != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(setOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareSets prints, for every workload and end-to-end metric, how
// much worse set b's median is than set a's, against the metric's
// bound. It refuses sets taken on different hosts.
func compareSets(w io.Writer, paths []string, boundsPath string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
		return 2
	}
	var sets [2]resultSet
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p, err)
			return 2
		}
	}
	if sets[0].Host != sets[1].Host {
		fmt.Fprintf(os.Stderr, "bench: the sets are from different hosts and cannot be compared:\n  %+v\n  %+v\n",
			sets[0].Host, sets[1].Host)
		return 2
	}
	var bf benchmarkFile
	data, err := os.ReadFile(boundsPath)
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", boundsPath, err)
		return 2
	}
	names := make([]string, 0, len(sets[0].Workloads))
	for name := range sets[0].Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	code := 0
	for _, name := range names {
		fmt.Fprintln(w, name)
		for _, m := range bf.EndToEnd {
			a, b := median(sets[0].Workloads[name][m.Name]), median(sets[1].Workloads[name][m.Name])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if !(worse <= m.Bound) {
				verdict, code = "WORSE THAN BOUND", 1
			}
			fmt.Fprintf(w, "  %-22s %12.6g -> %12.6g  worse by %+6.2f%%  bound %5.2f%%  %s\n",
				m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
