package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the example in-process: the message must get around the
// 2x4 block that forms on its path without backtracking, and the report
// must end with the rendered mesh.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mesh: [16 16], source (7,2), destination (7,13)\n",
		"arrived:    true\n",
		"(distance 11, detour ",
		"backtracks: 0\n",
		"faulty blocks now: [[6:9, 7:8]]\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	_, mesh, ok := strings.Cut(out.String(), "holds block info):\n")
	if rows := strings.Count(mesh, "\n"); !ok || rows != 16 {
		t.Errorf("the report does not end with the 16 rows of the rendered mesh:\n%s", out.String())
	}
}
