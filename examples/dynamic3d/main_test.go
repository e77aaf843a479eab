package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the example in-process: all three routers deliver across
// the dynamic faults, and every one of the four fault occurrences gets its
// convergence line.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"limited  arrived=true ", "oracle   arrived=true ", "blind    arrived=true ",
		"event 1 at step 2 ", "event 2 at step 30 ", "event 3 at step 60 ", "event 4 at step 90 ",
		" of 1000 nodes\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
