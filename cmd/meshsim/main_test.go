package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// meshsim runs the CLI in-process and returns its stdout.
func meshsim(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("meshsim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// TestSingleRunReport: a fixed-seed single run prints the route line and
// one convergence-table row per scheduled fault occurrence.
func TestSingleRunReport(t *testing.T) {
	out := meshsim(t, "-dims", "16x16", "-faults", "6", "-interval", "20", "-router", "limited", "-seed", "7")
	if want := "route (1,1) -> (14,14) (distance 26)\n  arrived in 26 steps: 26 hops, 0 extra, 0 backtracks\n"; !strings.Contains(out, want) {
		t.Errorf("route report missing %q in:\n%s", want, out)
	}
	_, table, ok := strings.Cut(out, "per-occurrence convergence (rounds):\n")
	if !ok {
		t.Fatalf("no convergence table in:\n%s", out)
	}
	rows := strings.Split(strings.TrimRight(table, "\n"), "\n")[1:] // header dropped
	if len(rows) != 6 {
		t.Fatalf("got %d convergence rows for 6 faults:\n%s", len(rows), table)
	}
	for i, row := range rows {
		if f := strings.Fields(row); len(f) != 8 || f[0] != strconv.Itoa(i+1) || f[2] != "fail" {
			t.Errorf("row %d malformed: %q", i+1, row)
		}
	}
}

// TestBatchWorkersIdentical: -trials aggregates are the same at every
// -workers value; only the reported worker count differs, and -workers
// below 1 reports the GOMAXPROCS the sweep resolves it to.
func TestBatchWorkersIdentical(t *testing.T) {
	batch := func(workers string) string {
		return meshsim(t, "-dims", "16x16", "-faults", "5", "-interval", "2", "-start", "1",
			"-router", "blind", "-trials", "6", "-workers", workers)
	}
	one := batch("1")
	if !strings.Contains(one, "6 trials (seeds 1..6), 1 workers\n") || !strings.Contains(one, "extra mean 9.33") {
		t.Errorf("unexpected aggregate:\n%s", one)
	}
	for workers, reported := range map[string]int{"2": 2, "0": runtime.GOMAXPROCS(0), "-3": runtime.GOMAXPROCS(0)} {
		out := batch(workers)
		if got := strings.Replace(out, fmt.Sprintf(", %d workers\n", reported), ", 1 workers\n", 1); got != one {
			t.Errorf("-workers %s: want the workers=1 aggregate with %d workers reported, got\n%s", workers, reported, out)
		}
	}
}

// TestWorkers: an explicit -workers count is reported as given, and a
// count below 1 resolves to GOMAXPROCS.
func TestWorkers(t *testing.T) {
	for workers, want := range map[string]int{"3": 3, "0": runtime.GOMAXPROCS(0), "-1": runtime.GOMAXPROCS(0)} {
		out := meshsim(t, "-dims", "8x8", "-faults", "2", "-trials", "2", "-workers", workers)
		if !strings.Contains(out, fmt.Sprintf(", %d workers\n", want)) {
			t.Errorf("-workers %s: want %d workers reported, got\n%s", workers, want, out)
		}
	}
}

// TestBadSrcIsAnError: a malformed -src is returned, not fatal.
func TestBadSrcIsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-src", "1"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "coordinate") {
		t.Fatalf("err = %v, want a coordinate error", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("a failed run printed: %s", stdout.String())
	}
}
