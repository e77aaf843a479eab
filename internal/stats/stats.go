// Package stats provides the measurement plumbing for the experiment
// harness: streaming summaries (Welford), histograms, counters, and an
// aligned plain-text table writer used by cmd/sweep and the benchmarks to
// print the paper-style result rows.
package stats

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// Summary accumulates a stream of float64 observations with O(1) memory
// using Welford's algorithm, tracking count, mean, variance, min and max.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddInt records one integer observation.
func (s *Summary) AddInt(x int) { s.Add(float64(x)) }

// Mean returns the running mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 for an empty summary).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 for an empty summary).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// String renders "mean ± std [min,max] (n)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f [%.0f,%.0f] (n=%d)", s.Mean(), s.Std(), s.Min(), s.Max(), s.n)
}

// Percentiles writes the exact ps[i]-quantile of a full sample slice (its
// element of rank floor(p·(n-1))) into out[i], sorting samples in place; an
// empty sample writes zeros. out must hold len(ps) values. Used where the
// sample set is small enough to keep (per-trial metrics).
func Percentiles(out, samples []int, ps ...float64) {
	slices.Sort(samples)
	for i, p := range ps {
		out[i] = 0
		if len(samples) > 0 {
			out[i] = samples[int(p*float64(len(samples)-1))]
		}
	}
}

// Table accumulates rows of string cells and writes them with aligned
// columns; the harness uses it to print paper-style result tables.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	colWide []int
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	t := &Table{Title: title, header: header, colWide: make([]int, len(header))}
	for i, h := range header {
		t.colWide[i] = len(h)
	}
	return t
}

// Cell renders one table cell: a float64 at two decimals, anything else
// with fmt.Sprint. It is the one cell rule of every table, batch or
// streamed (cliutil.CSVLine).
func Cell(c any) string {
	if v, ok := c.(float64); ok {
		return fmt.Sprintf("%.2f", v)
	}
	return fmt.Sprint(c)
}

// AddRow appends a row of cells rendered by Cell. Extra cells beyond the
// header width extend the table.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = Cell(c)
		for len(t.colWide) <= i {
			t.colWide = append(t.colWide, 0)
		}
		if len(row[i]) > t.colWide[i] {
			t.colWide[i] = len(row[i])
		}
	}
	t.rows = append(t.rows, row)
}

// WriteTo renders the table. It always returns a nil error from the
// underlying fmt calls being ignored deliberately; the io.WriterTo signature
// keeps it composable.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var total int64
	emit := func(s string) error {
		n, err := io.WriteString(w, s)
		total += int64(n)
		return err
	}
	if t.Title != "" {
		if err := emit("== " + t.Title + " ==\n"); err != nil {
			return total, err
		}
	}
	if err := emit(t.formatRow(t.header) + "\n"); err != nil {
		return total, err
	}
	if err := emit(t.rule() + "\n"); err != nil {
		return total, err
	}
	for _, r := range t.rows {
		if err := emit(t.formatRow(r) + "\n"); err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the whole table.
func (t *Table) String() string {
	var b strings.Builder
	_, _ = t.WriteTo(&b)
	return b.String()
}

func (t *Table) formatRow(cells []string) string {
	var b strings.Builder
	for i, c := range cells {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(c)
		if pad := t.colWide[i] - len(c); pad > 0 && i < len(cells)-1 {
			b.WriteString(strings.Repeat(" ", pad))
		}
	}
	return b.String()
}

func (t *Table) rule() string {
	var b strings.Builder
	for i, w := range t.colWide {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header first).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ","))
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
