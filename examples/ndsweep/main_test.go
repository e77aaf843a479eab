package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the example in-process: one convergence row and one
// delivered, detour-free routing row per mesh, 2-D through 5-D.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, mesh := range []string{"[24 24]", "[10 10 10]", "[6 6 6 6]", "[5 5 5 5 5]"} {
		if got := strings.Count(out.String(), mesh+" "); got != 2 {
			t.Errorf("%s appears on %d rows, want a convergence row and a routing row:\n%s", mesh, got, out.String())
		}
	}
	if got := strings.Count(out.String(), "arrived=true "); got != 4 {
		t.Errorf("%d of 4 routings arrived:\n%s", got, out.String())
	}
	if got := strings.Count(out.String(), " detour=0\n"); got != 4 {
		t.Errorf("%d of 4 routings were minimal:\n%s", got, out.String())
	}
}
