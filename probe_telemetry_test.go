package ndmesh

// Telemetry tests at the repository root: the probe layer's two headline
// contracts driven through the real load runner. (1) Attaching a probe
// changes nothing — the LoadPoint is byte-identical to the unprobed run —
// and the telemetry itself is byte-identical at every worker count,
// because the census lives in the engine's serial step.
// (2) The time series resolves the E22 gridlock story in time: the
// in-flight population plateaus and the stall census ramps to the full
// population before the detector fires.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ndmesh/internal/probe"
)

var updateFixtures = flag.Bool("update-fixtures", false, "rewrite checked-in telemetry fixtures")

// probedLoadCell is a small closed-loop cell in the escape regime: finite
// buffers, timeouts, retries and the gridlock detector all fire, so the
// probed/unprobed comparison covers every census source.
func probedLoadCell() LoadOptions {
	return LoadOptions{
		Dims:    []int{6, 6},
		Lambda:  1,
		Router:  "limited",
		Pattern: "uniform",
		Window:  2,
		Warmup:  16, Measure: 96, Drain: 96,
		LinkRate: 1, NodeCapacity: 2,
		FlightTimeout: 12, RetryBackoff: 4,
		GridlockWindow: 6,
		Seed:           42,
	}
}

// runProbed executes the cell with the full recorder set attached and
// returns the LoadPoint.
func runProbed(t *testing.T, opt LoadOptions) string {
	t.Helper()
	set := &probe.Set{}
	set.AddProbe(probe.NewTimeSeries(opt.Warmup + opt.Measure + opt.Drain + 2))
	set.AddProbe(probe.NewHeatmap(36, 4))
	set.AddProbe(&probe.Snapshot{})
	set.AddLatency(probe.NewLatencyHist())
	opt.Probe = set
	pt, err := LoadRun(opt)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v", pt)
}

// TestProbedLoadPointUnchanged pins the read-only contract end to end: the
// same cell run bare and run under the full recorder set produces a
// byte-identical LoadPoint.
func TestProbedLoadPointUnchanged(t *testing.T) {
	bare, err := LoadRun(probedLoadCell())
	if err != nil {
		t.Fatal(err)
	}
	probed := runProbed(t, probedLoadCell())
	if got, want := probed, fmt.Sprintf("%+v", bare); got != want {
		t.Errorf("probed LoadPoint diverged:\n got %s\nwant %s", got, want)
	}
}

// TestProbedSweepWorkerDeterministic covers the sweep entry points: a
// probed single-cell closed-loop sweep produces identical rows and
// identical telemetry at every worker count, and a probed multi-cell
// sweep is refused (stateful recorders cannot interleave cells).
func TestProbedSweepWorkerDeterministic(t *testing.T) {
	cell := func(workers int) (string, []byte) {
		opt := DefaultClosedLoop()
		opt.Dims = []int{6, 6}
		opt.Patterns = []string{"uniform"}
		opt.Windows = []int{2}
		opt.Warmup, opt.Measure, opt.Drain = 16, 64, 64
		ts := probe.NewTimeSeries(opt.Warmup + opt.Measure + opt.Drain + 2)
		opt.Probe = ts
		rows, err := ClosedLoopSweepWorkers(opt, 42, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ts.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", rows), buf.Bytes()
	}
	baseRows, baseTS := cell(1)
	for _, w := range parWorkerCounts {
		rows, ts := cell(w)
		if rows != baseRows {
			t.Errorf("workers=%d: probed sweep rows diverged", w)
		}
		if !bytes.Equal(ts, baseTS) {
			t.Errorf("workers=%d: probed sweep telemetry diverged", w)
		}
	}

	multi := DefaultClosedLoop()
	multi.Probe = probe.NewTimeSeries(8)
	if _, err := ClosedLoopSweepWorkers(multi, 1, 0); err == nil {
		t.Error("probed multi-cell sweep was not refused")
	}
}

// TestGridlockTimeSeriesFixture is the E22 observability payoff: on the
// boundary cell that wedges without escape mechanisms, the time series
// shows the collapse developing — the in-flight population plateaus
// (frozen: zero moves, zero deliveries) and the stall census ramps to the
// full standing population — before the detector fires. The rendered CSV
// is pinned byte-for-byte against testdata/e22_gridlock_timeseries.csv
// (regenerate with -update-fixtures in the same commit as a deliberate
// engine change, and say so).
func TestGridlockTimeSeriesFixture(t *testing.T) {
	// The gridlockBoundaryCell scenario under the "none" arm: detection
	// only, no timeout rescue, so the wedge is terminal.
	opt := LoadOptions{
		Dims:    []int{6, 6},
		Lambda:  1,
		Router:  "limited",
		Pattern: "uniform",
		Window:  2,
		Warmup:  32, Measure: 192, Drain: 192,
		LinkRate: 1, NodeCapacity: 4,
		GridlockWindow: 8,
		Seed:           5,
	}
	ts := probe.NewTimeSeries(opt.Warmup + opt.Measure + opt.Drain + 2)
	opt.Probe = ts
	pt, err := LoadRun(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Gridlocked || pt.GridlockStep == 0 {
		t.Fatalf("boundary cell did not wedge (gridlocked=%v step=%d) — fixture scenario broken", pt.Gridlocked, pt.GridlockStep)
	}
	rows := ts.Rows()
	// Locate the detector firing in the series and check it agrees with
	// the LoadPoint.
	latched := -1
	for i, r := range rows {
		if r.Gridlocked {
			latched = i
			break
		}
	}
	if latched < 0 {
		t.Fatal("time series never shows the gridlock latch")
	}
	if rows[latched].Step != pt.GridlockStep {
		t.Errorf("latch at series step %d, LoadPoint says %d", rows[latched].Step, pt.GridlockStep)
	}
	// The plateau: for the detector to fire, the GridlockWindow steps
	// before detection made zero progress — population frozen, every
	// live flight stalling.
	if latched < opt.GridlockWindow {
		t.Fatalf("latch at row %d, before a full detection window", latched)
	}
	frozen := rows[latched].InFlight
	if frozen == 0 {
		t.Fatal("wedged with an empty network")
	}
	for i := latched - opt.GridlockWindow + 1; i <= latched; i++ {
		r := rows[i]
		if r.Moves != 0 || r.Delivered != 0 {
			t.Errorf("row %d (step %d) inside the dead window shows progress: %+v", i, r.Step, r)
		}
		if r.InFlight != frozen {
			t.Errorf("row %d (step %d): in-flight %d, plateau is %d", i, r.Step, r.InFlight, frozen)
		}
		if r.Stalls != frozen {
			t.Errorf("row %d (step %d): stalls %d != frozen population %d", i, r.Step, r.Stalls, frozen)
		}
	}
	// The ramp: the wedge develops — early steps still move flights, so
	// the stall census climbs toward the dead window rather than starting
	// there.
	if rows[0].Stalls >= frozen {
		t.Errorf("stall census starts at the wedge level (%d >= %d): no ramp visible", rows[0].Stalls, frozen)
	}
	moved := 0
	for _, r := range rows[:latched] {
		moved += r.Moves
	}
	if moved == 0 {
		t.Error("no flight ever moved before the wedge — scenario degenerate")
	}

	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join("testdata", "e22_gridlock_timeseries.csv")
	if *updateFixtures {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixture, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("time series diverged from %s (%d vs %d bytes); if deliberate, regenerate with -update-fixtures and say so in the commit",
			fixture, buf.Len(), len(want))
	}
}
