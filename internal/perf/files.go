package perf

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// FindTraceFiles expands path into the trace files it names, so the
// offline readers accept every layout the pipeline produces:
//
//   - a single .psxt file, returned as-is;
//   - a directory of per-thread trace files — a StreamDir, an
//     ompprof -trace output dir, or one psxd run directory;
//   - a psxd data root, whose per-run subdirectories each hold
//     per-thread trace files.
//
// The result is sorted; a path with no trace files under it is an
// error so a typo'd directory fails loudly instead of analyzing
// nothing.
func FindTraceFiles(path string) ([]string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return []string{path}, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	var out []string
	var subdirs []string
	for _, e := range entries {
		if e.IsDir() {
			subdirs = append(subdirs, filepath.Join(path, e.Name()))
			continue
		}
		if filepath.Ext(e.Name()) == ".psxt" {
			out = append(out, filepath.Join(path, e.Name()))
		}
	}
	if len(out) == 0 {
		// No trace files directly inside: treat path as a psxd data
		// root with one subdirectory per run.
		for _, sub := range subdirs {
			subEntries, err := os.ReadDir(sub)
			if err != nil {
				continue
			}
			for _, e := range subEntries {
				if !e.IsDir() && filepath.Ext(e.Name()) == ".psxt" {
					out = append(out, filepath.Join(sub, e.Name()))
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("perf: no .psxt trace files under %s", path)
	}
	sort.Strings(out)
	return out, nil
}

// HangReportName is the file a hang salvage writes its diagnosis to,
// in the directory that holds the traces it explains. Trace files
// carry samples only; readers take the report from here, once per
// directory.
const HangReportName = "hang.report"

// HangReport returns the hang diagnosis salvaged into dir, or "" when
// the traces there come from a run that did not hang. A report that
// cannot be read counts as none: the traces beside it read the same
// either way.
func HangReport(dir string) string {
	text, _ := os.ReadFile(filepath.Join(dir, HangReportName))
	return string(text)
}
