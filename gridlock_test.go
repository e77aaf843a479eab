package ndmesh

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"ndmesh/internal/traffic"
)

// smallGridlock is the quick E22 grid used by the determinism and golden
// tests: one pattern, windows and capacities straddling the phase boundary,
// a fault-free and a faulty column, all four mechanism arms on a 6x6 mesh.
func smallGridlock() GridlockOptions {
	opt := DefaultGridlock()
	opt.Dims = []int{6, 6}
	opt.Patterns = []string{"uniform"}
	opt.Windows = []int{1, 2}
	opt.Capacities = []int{2, 4}
	opt.FaultCounts = []int{0, 2}
	opt.FaultInterval = 16
	opt.Warmup, opt.Measure, opt.Drain = 16, 96, 96
	opt.FlightTimeout = 12
	opt.GridlockWindow = 6
	return opt
}

// gridlockBoundaryCell is the acceptance cell: 6x6 uniform closed loop,
// capacity 4, window 2 — deep enough in the collapse regime that the bare
// run wedges, shallow enough that every escape mechanism (including the
// injection-only bubble gate) gets it through. See DefaultGridlock's doc
// comment for where this sits on the phase boundary.
func gridlockBoundaryCell(mechanisms ...string) GridlockOptions {
	opt := DefaultGridlock()
	opt.Dims = []int{6, 6}
	opt.Patterns = []string{"uniform"}
	opt.Windows = []int{2}
	opt.Capacities = []int{4}
	opt.FaultCounts = []int{0}
	opt.Mechanisms = mechanisms
	return opt
}

// TestGoldenGridlockSweep pins one E22 run byte-for-byte at a fixed seed:
// the per-cell stream split, the value-copy arm discipline, the detector,
// the timeout kills and the backoff jitter draws all feed these strings. If
// a deliberate change to any of those is made, recapture in the same commit
// and say so.
func TestGoldenGridlockSweep(t *testing.T) {
	opt := smallGridlock()
	opt.Windows = []int{2}
	opt.FaultCounts = []int{0}
	rows, err := GridlockSweepWorkers(opt, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenGridlockRows
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if got := fmt.Sprintf("%+v", r); got != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// TestGridlockEscapeAcceptance is the tentpole's acceptance criterion: on a
// cell that genuinely gridlocks, the bare run detects and reports it, and
// every escape mechanism turns the wedge into a completing run with more
// delivered throughput.
func TestGridlockEscapeAcceptance(t *testing.T) {
	rows, err := GridlockSweepWorkers(gridlockBoundaryCell(GridlockMechanisms...), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	byMech := map[string]GridlockRow{}
	for _, r := range rows {
		byMech[r.Mechanism] = r
	}
	none := byMech["none"]
	if !none.Gridlocked {
		t.Fatalf("boundary cell did not gridlock without escape mechanisms: %+v", none)
	}
	if none.GridlockStep == 0 {
		t.Error("gridlocked run reports no detection step")
	}
	for _, mech := range []string{"retry", "bubble", "retry+bubble"} {
		r := byMech[mech]
		if r.Gridlocked {
			t.Errorf("%s: still terminally gridlocked: %+v", mech, r)
		}
		if r.Delivered <= none.Delivered {
			t.Errorf("%s: delivered %d, no better than the wedged baseline's %d",
				mech, r.Delivered, none.Delivered)
		}
		if r.AcceptedRate <= 0 {
			t.Errorf("%s: zero accepted throughput", mech)
		}
	}
	// The pure retry arm must show its mechanism in the accounting. (The
	// combined arm legitimately may not: when bubble admission prevents the
	// wedge outright, no flight ever stalls long enough to time out, and
	// retry+bubble reproduces the bubble arm exactly.)
	if r := byMech["retry"]; r.TimedOut == 0 || r.Retried == 0 {
		t.Errorf("retry: escaped without a single timeout/retry (timedOut=%d retried=%d) — wrong cell?",
			r.TimedOut, r.Retried)
	}
	if r, b := byMech["retry+bubble"], byMech["bubble"]; r.TimedOut == 0 && !reflect.DeepEqual(stripMech(r), stripMech(b)) {
		t.Errorf("retry+bubble fired no timeouts yet diverged from bubble:\n %+v\n %+v", r, b)
	}
}

// stripMech blanks the mechanism label so two arms can be compared on
// behavior alone.
func stripMech(r GridlockRow) GridlockRow {
	r.Mechanism = ""
	return r
}

// TestGridlockDetectionCutsRunShort is the watchdog: a wedged cell must stop
// via detection, not spin its full step budget (before detection, this hung
// until maxSteps — indistinguishable from needing a bigger budget). The goroutine + timeout keeps the failure mode a loud test
// failure rather than a suite-level hang.
func TestGridlockDetectionCutsRunShort(t *testing.T) {
	opt := gridlockBoundaryCell("none")
	opt.Measure = 200000 // a detection failure would spin all of this
	done := make(chan error, 1)
	var rows []GridlockRow
	go func() {
		var err error
		rows, err = GridlockSweepWorkers(opt, 1, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("watchdog: gridlocked run did not stop within 60s; detection is not cutting it short")
	}
	if len(rows) != 1 || !rows[0].Gridlocked {
		t.Fatalf("expected one gridlocked row, got %+v", rows)
	}
}

// TestClosedLoopRetryConservation pins the extended conservation invariant
// on a closed-loop run whose timeouts fire: measured flights partition as
// injected == delivered + unreachable + lost + timed-out + unfinished, and
// every timed-out closed-loop flight re-arms exactly one retry.
func TestClosedLoopRetryConservation(t *testing.T) {
	for _, faults := range []int{0, 3} {
		t.Run(fmt.Sprintf("faults=%d", faults), func(t *testing.T) {
			pt, err := LoadRun(LoadOptions{
				Dims: []int{6, 6}, Router: "limited", Pattern: "uniform",
				Window: 2, Warmup: 32, Measure: 192, Drain: 192,
				NodeCapacity: 4, FlightTimeout: 16, RetryBackoff: 4, GridlockWindow: 8,
				Faults: faults, FaultInterval: 24, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if sum := pt.Delivered + pt.Unreachable + pt.Lost + pt.TimedOut + pt.Unfinished; pt.Injected != sum {
				t.Errorf("conservation broken: injected %d != %d (delivered %d + unreach %d + lost %d + timed-out %d + unfin %d)",
					pt.Injected, sum, pt.Delivered, pt.Unreachable, pt.Lost, pt.TimedOut, pt.Unfinished)
			}
			if pt.TimedOut == 0 {
				t.Error("no timeouts fired; the test lost its teeth")
			}
			if pt.Retried != pt.TimedOut {
				t.Errorf("retried %d != timed-out %d: each closed-loop timeout must re-arm exactly once",
					pt.Retried, pt.TimedOut)
			}
		})
	}
}

// replayComparison is the small replay comparison TestReplayCompareSweep
// and the load sweeps' determinism table run: a 6x6 transpose recording
// replayed under three routers.
func replayComparison(t *testing.T) ReplayCompareOptions {
	t.Helper()
	rec := &traffic.Trace{}
	if _, err := LoadRun(LoadOptions{
		Dims: []int{6, 6}, Router: "limited", Pattern: "transpose",
		Rate: 0.25, Warmup: 16, Measure: 48, Drain: 48,
		NodeCapacity: 4, Seed: 3, Record: rec,
	}); err != nil {
		t.Fatal(err)
	}
	return ReplayCompareOptions{Routers: []string{"limited", "congested", "blind"}, Replay: rec}
}

// TestReplayCompareSweep pins the replay-across-routers sweep: the arm for
// the recording router reproduces a plain LoadRun replay byte-for-byte and
// every arm sees the identical offered workload (its rows at every worker
// count: TestLoadSweepsDeterministicAcrossWorkers).
func TestReplayCompareSweep(t *testing.T) {
	opt := replayComparison(t)
	serial, err := ReplayCompareSweepWorkers(opt, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	single, err := LoadRun(LoadOptions{Router: "limited", Replay: opt.Replay})
	if err != nil {
		t.Fatal(err)
	}
	if serial[0].Router != "limited" || !reflect.DeepEqual(serial[0].Point, single) {
		t.Errorf("comparison arm diverged from LoadRun replay:\n got %+v\nwant %+v", serial[0].Point, single)
	}
	for _, row := range serial {
		if row.Point.Offered != single.Offered {
			t.Errorf("%s saw %d measured offers, want %d — the workload is not controlled",
				row.Router, row.Point.Offered, single.Offered)
		}
		if row.Point.Delivered == 0 {
			t.Errorf("%s delivered nothing under the replayed workload", row.Router)
		}
	}
}

// TestGridlockSweepValidation pins the option errors: unknown mechanisms,
// bubble-incompatible capacities and disabled detection/timeouts are
// refused up front instead of producing a sweep that cannot mean anything.
func TestGridlockSweepValidation(t *testing.T) {
	base := smallGridlock()
	for name, mutate := range map[string]func(*GridlockOptions){
		"unknown mechanism": func(o *GridlockOptions) { o.Mechanisms = []string{"prayer"} },
		"capacity 1":        func(o *GridlockOptions) { o.Capacities = []int{1} },
		"window 0":          func(o *GridlockOptions) { o.Windows = []int{0} },
		"no timeout":        func(o *GridlockOptions) { o.FlightTimeout = 0 },
		"no detection":      func(o *GridlockOptions) { o.GridlockWindow = 0 },
		"no patterns":       func(o *GridlockOptions) { o.Patterns = nil },
	} {
		opt := base
		mutate(&opt)
		if _, err := GridlockSweepWorkers(opt, 1, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// goldenGridlockRows is the pinned output of TestGoldenGridlockSweep
// (smallGridlock narrowed to window 2, fault-free, at seed 7, serial). The
// rows double as a miniature of the phase diagram: at capacity 2 the run is
// in deep collapse (the injection-only bubble gate cannot relieve transit
// cycles, so only the retry arms escape), at capacity 4 it sits on the
// boundary band (bubble degrades gracefully, retry completes, the
// combination is best).
var goldenGridlockRows = []string{
	"{Dims:6x6 mesh Pattern:uniform Router:limited Window:2 Capacity:2 Faults:0 Mechanism:none Gridlocked:true GridlockStep:6 RecoverySteps:0 AcceptedRate:0 Delivered:0 TimedOut:0 Retried:0 Unreachable:0 Lost:0 Unfinished:0 LatMean:0 LatP50:0 LatP99:0}",
	"{Dims:6x6 mesh Pattern:uniform Router:limited Window:2 Capacity:2 Faults:0 Mechanism:retry Gridlocked:false GridlockStep:6 RecoverySteps:7 AcceptedRate:0.05439814814814815 Delivered:188 TimedOut:112 Retried:112 Unreachable:0 Lost:0 Unfinished:0 LatMean:9.856382978723408 LatP50:8 LatP99:30}",
	"{Dims:6x6 mesh Pattern:uniform Router:limited Window:2 Capacity:2 Faults:0 Mechanism:bubble Gridlocked:true GridlockStep:25 RecoverySteps:0 AcceptedRate:0 Delivered:0 TimedOut:0 Retried:0 Unreachable:0 Lost:0 Unfinished:2 LatMean:0 LatP50:0 LatP99:0}",
	"{Dims:6x6 mesh Pattern:uniform Router:limited Window:2 Capacity:2 Faults:0 Mechanism:retry+bubble Gridlocked:false GridlockStep:0 RecoverySteps:0 AcceptedRate:0.08912037037037036 Delivered:308 TimedOut:64 Retried:64 Unreachable:0 Lost:0 Unfinished:0 LatMean:8.902597402597403 LatP50:7 LatP99:27}",
	"{Dims:6x6 mesh Pattern:uniform Router:limited Window:2 Capacity:4 Faults:0 Mechanism:none Gridlocked:true GridlockStep:61 RecoverySteps:0 AcceptedRate:0.019965277777777776 Delivered:69 TimedOut:0 Retried:0 Unreachable:0 Lost:0 Unfinished:45 LatMean:4.782608695652174 LatP50:5 LatP99:10}",
	"{Dims:6x6 mesh Pattern:uniform Router:limited Window:2 Capacity:4 Faults:0 Mechanism:retry Gridlocked:false GridlockStep:0 RecoverySteps:0 AcceptedRate:0.21238425925925927 Delivered:734 TimedOut:57 Retried:57 Unreachable:0 Lost:0 Unfinished:0 LatMean:6.6689373297002765 LatP50:6 LatP99:23}",
	"{Dims:6x6 mesh Pattern:uniform Router:limited Window:2 Capacity:4 Faults:0 Mechanism:bubble Gridlocked:true GridlockStep:122 RecoverySteps:0 AcceptedRate:0.15653935185185186 Delivered:541 TimedOut:0 Retried:0 Unreachable:0 Lost:0 Unfinished:60 LatMean:5.0591497227356665 LatP50:5 LatP99:11}",
	"{Dims:6x6 mesh Pattern:uniform Router:limited Window:2 Capacity:4 Faults:0 Mechanism:retry+bubble Gridlocked:false GridlockStep:0 RecoverySteps:0 AcceptedRate:0.3023726851851852 Delivered:1045 TimedOut:17 Retried:17 Unreachable:0 Lost:0 Unfinished:0 LatMean:5.569377990430629 LatP50:5 LatP99:17}",
}
