package ndmesh

import (
	"reflect"
	"strings"
	"testing"
)

// These tests pin the parallel experiment engine's determinism guarantee:
// for a fixed seed, every sweep must produce results identical to the
// serial path (workers=1) at any worker count. Run them under -race (CI
// does) to also certify the fan-out shares no mutable state.

var parWorkerCounts = []int{2, 3, 8}

func TestProtocolSweepsDeterministicAcrossWorkers(t *testing.T) {
	degradation := DefaultDegradation()
	degradation.Dims = []int{12, 12}
	degradation.Trials = 4
	degradation.Intervals = []int{4, 32}
	sweeps := []struct {
		name string
		run  func(workers int) (any, error)
	}{
		{"theorems", func(w int) (any, error) { return TheoremSweepWorkers([]int{12, 12}, 10, 42, w) }},
		{"degradation", func(w int) (any, error) { return DegradationSweepWorkers(degradation, 7, w) }},
		{"convergence", func(w int) (any, error) {
			return ConvergenceSweepWorkers([][]int{{12, 12}, {8, 8, 8}, {14, 14}}, 3, 11, w)
		}},
		{"lambda", func(w int) (any, error) { return LambdaSweepWorkers([]int{12, 12}, []int{1, 4}, 4, 5, w) }},
		{"memory", func(w int) (any, error) {
			return MemorySweepWorkers([][]int{{12, 12}, {8, 8, 8}}, []int{2, 4}, 3, w)
		}},
		{"oscillation", func(w int) (any, error) {
			return OscillationSweepWorkers([]int{12, 12}, 4, []int{4, 12}, 3, 9, w)
		}},
		{"traffic", func(w int) (any, error) { return TrafficSweepWorkers([]int{14, 14}, 8, 4, 10, 21, w) }},
		{"route", func(w int) (any, error) {
			cfg, src, dst, plans := routeSweepScenario()
			return RouteSweepWorkers(cfg, src, dst, "limited", plans, w)
		}},
	}
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) { sameAtEveryWorkerCount(t, sw.run) })
	}
}

// TestLoadSweepsDeterministicAcrossWorkers extends the contract to the load
// subsystem: each load sweep (E19-E23) on its small test options, and the
// replay comparison, gives its serial rows at every worker count, with
// timeouts, retries under jittered backoff, bubble admission and the
// Monte-Carlo fold all firing. The congestion row compares the summaries as
// well as the rows.
func TestLoadSweepsDeterministicAcrossWorkers(t *testing.T) {
	replay := replayComparison(t)
	sweeps := []struct {
		name string
		run  func(workers int) (any, error)
	}{
		{"saturation", func(w int) (any, error) { return SaturationSweepWorkers(smallSaturation(), 42, w) }},
		{"congestion", func(w int) (any, error) {
			rows, sums, err := CongestionShiftSweepWorkers(smallCongestionShift(), 42, w)
			return [2]any{rows, sums}, err
		}},
		{"closed-loop", func(w int) (any, error) { return ClosedLoopSweepWorkers(smallClosedLoop(), 42, w) }},
		{"gridlock", func(w int) (any, error) { return GridlockSweepWorkers(smallGridlock(), 42, w) }},
		{"reliability", func(w int) (any, error) { return ReliabilitySweepWorkers(smallReliability(), 42, w) }},
		{"replay-compare", func(w int) (any, error) { return ReplayCompareSweepWorkers(replay, 42, w) }},
	}
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) { sameAtEveryWorkerCount(t, sw.run) })
	}
}

// sameAtEveryWorkerCount holds run's result at each of parWorkerCounts to
// its serial (workers=1) result.
func sameAtEveryWorkerCount(t *testing.T, run func(workers int) (any, error)) {
	t.Helper()
	serial, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parWorkerCounts {
		got, err := run(w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d:\n got %+v\nwant %+v", w, got, serial)
		}
	}
}

// TestProtocolSweepFailingJob pins what a protocol sweep inherits from
// runGrid when jobs fail: the lowest failing index's error, whatever the
// scheduling, and no partial rows. A 3x3 mesh has a one-node interior, so
// fault.Generate cannot grow a block there (job 1); a zero radix is refused
// by the shape itself (job 2). The error names the sweep and job 1's mesh.
func TestProtocolSweepFailingJob(t *testing.T) {
	shapes := [][]int{{12, 12}, {3, 3}, {0}}
	for _, w := range []int{1, 2} {
		rows, err := ConvergenceSweepWorkers(shapes, 3, 11, w)
		if err == nil || !strings.HasPrefix(err.Error(), "ndmesh: convergence sweep on 3x3: fault:") {
			t.Errorf("workers=%d: error %v, want job 1's fault.Generate error", w, err)
		}
		if rows != nil {
			t.Errorf("workers=%d: rows %+v alongside an error, want nil", w, rows)
		}
	}
}
