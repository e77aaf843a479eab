package stats

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.n != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary not zero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.n != 8 {
		t.Fatalf("N = %d", s.n)
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %f", s.Mean())
	}
	// Sample std of this classic dataset: population std is 2, sample
	// variance = 32/7.
	if math.Abs(s.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("Var = %f", s.Var())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %f/%f", s.Min(), s.Max())
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSummaryAddInt(t *testing.T) {
	var s Summary
	s.AddInt(3)
	s.AddInt(5)
	if s.Mean() != 4 {
		t.Fatalf("Mean = %f", s.Mean())
	}
}

func TestPercentiles(t *testing.T) {
	samples := []int{9, 1, 5, 3, 7}
	ps := make([]int, 3)
	Percentiles(ps, samples, 0, 0.5, 1.0)
	if ps[0] != 1 || ps[1] != 5 || ps[2] != 9 {
		t.Fatalf("percentiles = %v", ps)
	}
	// The sample is ranked in place.
	if !slices.IsSorted(samples) {
		t.Fatalf("Percentiles left the sample unsorted: %v", samples)
	}
	got := []int{4}
	if Percentiles(got, nil, 0.5); got[0] != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
}

func TestTable(t *testing.T) {
	tab := NewTable("demo", "name", "value")
	tab.AddRow("alpha", 1)
	tab.AddRow("b", 2.5)
	out := tab.String()
	if !strings.Contains(out, "== demo ==") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.50") {
		t.Errorf("missing cells: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("line count = %d: %q", len(lines), out)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "name,value\n") || !strings.Contains(csv, "alpha,1\n") {
		t.Errorf("CSV = %q", csv)
	}
}

func TestTableAlignment(t *testing.T) {
	tab := NewTable("", "a", "bb")
	tab.AddRow("xxxxxx", "y")
	out := tab.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header and row should align on the second column.
	if len(lines) < 3 {
		t.Fatalf("missing lines: %q", out)
	}
	hdr, row := lines[0], lines[2]
	if idxOf(hdr, "bb") != idxOf(row, "y") {
		t.Errorf("columns misaligned:\n%q\n%q", hdr, row)
	}
}

func idxOf(s, sub string) int { return strings.Index(s, sub) }
