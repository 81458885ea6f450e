// Command size prints the code lines of every package outside bench/
// and of the tree: lines on which a Go token other than an automatic
// semicolon starts, test files excluded. Blank lines, comments and the
// inner lines of a raw string do not count, so a size target stated in
// this unit cannot be met by deleting comments. Run from the repository
// root (make size).
package main

import (
	"fmt"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	lines, total := map[string]int{}, 0
	err := filepath.Walk(".", func(path string, _ os.FileInfo, err error) error {
		if err != nil || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			strings.HasPrefix(path, "bench/") || strings.HasPrefix(path, ".bench_build/") {
			return err
		}
		// A file that cannot be read scans as empty and its error
		// ends the walk.
		src, err := os.ReadFile(path)
		var s scanner.Scanner
		file, last := token.NewFileSet().AddFile(path, -1, len(src)), 0
		s.Init(file, src, nil, 0)
		for pos, tok, lit := s.Scan(); tok != token.EOF; pos, tok, lit = s.Scan() {
			if line := file.Line(pos); line != last && !(tok == token.SEMICOLON && lit == "\n") {
				last = line
				lines[filepath.Dir(path)]++
				total++
			}
		}
		return err
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "size:", err)
		os.Exit(1)
	}
	dirs := make([]string, 0, len(lines))
	for dir := range lines {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		fmt.Printf("%6d  %s\n", lines[dir], dir)
	}
	fmt.Printf("%6d  total\n", total)
}
