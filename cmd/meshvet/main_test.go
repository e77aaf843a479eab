package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes drives meshvet in-process over a clean fixture package, one
// with a finding, and -h, whose usage lists the three analyzers.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want []string // substrings of stderr
	}{
		{[]string{"./testdata/clean"}, 0, nil},
		{[]string{"./testdata/finding"}, 1, []string{"finding.go:7:", "time.Now reads the wall clock", "(determinism)"}},
		{[]string{"-h"}, 2, []string{"usage: meshvet [packages]",
			"  determinism ", "  resetcomplete ", "  noalloc "}},
	}
	for _, c := range cases {
		var stderr bytes.Buffer
		if code := run(c.args, &stderr); code != c.code {
			t.Errorf("meshvet %s exited %d, want %d; stderr:\n%s", strings.Join(c.args, " "), code, c.code, &stderr)
		}
		for _, w := range c.want {
			if !strings.Contains(stderr.String(), w) {
				t.Errorf("meshvet %s: stderr lacks %q:\n%s", strings.Join(c.args, " "), w, &stderr)
			}
		}
		if c.code == 0 && stderr.Len() > 0 {
			t.Errorf("meshvet %s: clean run wrote to stderr:\n%s", strings.Join(c.args, " "), &stderr)
		}
	}
}
