package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the example in-process: Figure 1's block forms, shrinks to
// Figure 4's after the recovery with fewer records, and the routing that
// crosses the recovery stays optimal (Theorem 1).
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		" rounds: [[3:5, 5:6, 3:4]]\n",
		" rounds: [[3:4, 5:6, 3:4]]\n",
		"slice z=3 after recovery",
		"  arrived=true hops=20 distance=20 detour=0 backtracks=0\n",
		"  optimal: the recovery constructions did not disturb the routing\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
