package probe

import (
	"fmt"
	"io"

	"ndmesh/internal/engine"
)

// Row is one flushed census in the time series: the scalar part of an
// engine.StepCensus (the slice views are folded by Heatmap, not kept
// here).
type Row struct {
	Step, Steps                            int
	Injected                               int
	Delivered, Unreachable, Lost, TimedOut int
	Retried                                int
	Failed, Recovered                      int
	Moves, Stalls                          int
	InFlight                               int
	Gridlocked                             bool
}

// TimeSeriesSchema lists the CSV columns WriteCSV emits, in order. The
// manifest embeds it so consumers never guess.
var TimeSeriesSchema = []string{
	"step", "steps", "injected", "delivered", "unreachable", "lost",
	"timed_out", "retried", "failed", "recovered", "moves", "stalls",
	"in_flight", "gridlocked",
}

// TimeSeries records one Row per flush into a pre-sized ring: the last
// `capacity` rows are kept, older ones are dropped (and counted), and
// steady-state recording allocates nothing. Load runs size the ring to
// the whole run so nothing drops; a live endpoint can size it to a
// window.
type TimeSeries struct {
	rows    []Row
	start   int // index of the oldest row
	n       int // rows currently held
	dropped int // rows overwritten because the ring was full
}

// NewTimeSeries builds a ring holding the last capacity rows (min 1).
func NewTimeSeries(capacity int) *TimeSeries {
	if capacity < 1 {
		capacity = 1
	}
	return &TimeSeries{rows: make([]Row, capacity)}
}

// ObserveStep implements engine.Probe.
//
//meshvet:noalloc TestProbedStepAllocFree
func (t *TimeSeries) ObserveStep(c engine.StepCensus) {
	i := t.start + t.n
	if i >= len(t.rows) {
		i -= len(t.rows)
	}
	t.rows[i] = Row{
		Step: c.Step, Steps: c.Steps,
		Injected:  c.Injected,
		Delivered: c.Delivered, Unreachable: c.Unreachable,
		Lost: c.Lost, TimedOut: c.TimedOut,
		Retried: c.Retried,
		Failed:  c.Failed, Recovered: c.Recovered,
		Moves: c.Moves, Stalls: c.Stalls,
		InFlight:   c.InFlight,
		Gridlocked: c.Gridlocked,
	}
	if t.n < len(t.rows) {
		t.n++
	} else {
		t.start++
		if t.start == len(t.rows) {
			t.start = 0
		}
		t.dropped++
	}
}

// Dropped returns how many rows were overwritten because the ring
// filled.
func (t *TimeSeries) Dropped() int { return t.dropped }

// Rows returns the held rows in chronological order (a fresh slice).
func (t *TimeSeries) Rows() []Row {
	out := make([]Row, t.n)
	for i := 0; i < t.n; i++ {
		j := t.start + i
		if j >= len(t.rows) {
			j -= len(t.rows)
		}
		out[i] = t.rows[j]
	}
	return out
}

// WriteCSV emits the held rows with the TimeSeriesSchema header.
func (t *TimeSeries) WriteCSV(w io.Writer) error {
	if err := writeHeader(w, TimeSeriesSchema); err != nil {
		return err
	}
	for _, r := range t.Rows() {
		g := 0
		if r.Gridlocked {
			g = 1
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			r.Step, r.Steps, r.Injected, r.Delivered, r.Unreachable,
			r.Lost, r.TimedOut, r.Retried, r.Failed, r.Recovered,
			r.Moves, r.Stalls, r.InFlight, g); err != nil {
			return err
		}
	}
	return nil
}
