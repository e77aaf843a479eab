// Package cliutil holds the flag-parsing helpers shared by the command
// line tools (meshsim, faultviz, loadgen, sweep): mesh dimensions,
// coordinates, comma-separated lists and rates. One copy, so validation
// fixes reach every CLI.
package cliutil

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"ndmesh/internal/grid"
)

// ParseDims parses mesh dimensions like "16x16" or "10x10x10".
func ParseDims(s string) ([]int, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad dimensions %q: %v", s, err)
		}
		dims = append(dims, v)
	}
	return dims, nil
}

// ParseCoord parses an n-component coordinate like "1,1" or "3,5,4".
func ParseCoord(s string, n int) (grid.Coord, error) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("coordinate %q needs %d components", s, n)
	}
	c := make(grid.Coord, n)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad coordinate %q: %v", s, err)
		}
		c[i] = v
	}
	return c, nil
}

// SplitList splits a comma-separated flag value, trimming blanks.
func SplitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ParseInts parses a comma-separated list of positive integers (e.g. the
// closed-loop -windows flag). An empty/blank string parses to nil, so the
// flag's presence doubles as the mode switch.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, p := range SplitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad value %q (need a positive integer)", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseRates parses a comma-separated list of positive rates.
func ParseRates(s string) ([]float64, error) {
	var rates []float64
	for _, p := range SplitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("bad rate %q (need a positive finite number)", p)
		}
		rates = append(rates, v)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("no rates given")
	}
	return rates, nil
}

// Progress returns a (done, total) callback that prints per-cell sweep
// completion to stderr (the sweeps call it from worker goroutines;
// Fprintf on a shared os.File is atomic enough for single-line writes),
// or nil when disabled — the sweep options treat a nil callback as "no
// progress reporting".
func Progress(enabled bool, label string) func(done, total int) {
	if !enabled {
		return nil
	}
	return func(done, total int) {
		fmt.Fprintf(os.Stderr, "%s: %d/%d cells done\n", label, done, total)
	}
}
