package ndmesh

import (
	"fmt"
	"testing"
)

// These golden values were captured from the experiment sweeps BEFORE the
// endpoint drawing was refactored onto internal/traffic (PR 2). They pin
// the refactor's byte-identical contract: the sweeps' rng consumption —
// including the long-haul pair generator now living in
// traffic.DrawLongHaulPair — must not drift, or every number the sweeps
// print silently changes. If a deliberate change to the
// randomness discipline is ever made, recapture these values in the same
// commit and say so.

func TestGoldenDegradationSweep(t *testing.T) {
	opt := DefaultDegradation()
	opt.Dims = []int{12, 12}
	opt.Trials = 6
	opt.Intervals = []int{4, 32}
	rows, err := DegradationSweepWorkers(opt, 77, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"{Interval:4 Router:limited Trials:6 SuccessPct:100 MeanSteps:12.5 MeanExtra:0 MeanBack:0 P95Extra:0}",
		"{Interval:4 Router:oracle Trials:6 SuccessPct:100 MeanSteps:12.5 MeanExtra:0 MeanBack:0 P95Extra:0}",
		"{Interval:4 Router:blind Trials:6 SuccessPct:100 MeanSteps:15.166666666666666 MeanExtra:2.666666666666667 MeanBack:0 P95Extra:0}",
		"{Interval:32 Router:limited Trials:6 SuccessPct:100 MeanSteps:12.833333333333334 MeanExtra:0 MeanBack:0 P95Extra:0}",
		"{Interval:32 Router:oracle Trials:6 SuccessPct:100 MeanSteps:12.833333333333334 MeanExtra:0 MeanBack:0 P95Extra:0}",
		"{Interval:32 Router:blind Trials:6 SuccessPct:100 MeanSteps:13.5 MeanExtra:0.6666666666666667 MeanBack:0 P95Extra:0}",
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if got := fmt.Sprintf("%+v", r); got != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

func TestGoldenTrafficSweep(t *testing.T) {
	rows, err := TrafficSweepWorkers([]int{14, 14}, 10, 5, 8, 33, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"{Router:limited Messages:10 ArrivedPct:100 MeanExtra:0.20000000000000004 TotalBack:0 MaxSteps:18}",
		"{Router:oracle Messages:10 ArrivedPct:100 MeanExtra:0 TotalBack:0 MaxSteps:18}",
		"{Router:blind Messages:10 ArrivedPct:100 MeanExtra:5.6 TotalBack:0 MaxSteps:68}",
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if got := fmt.Sprintf("%+v", r); got != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

func TestGoldenLambdaSweep(t *testing.T) {
	rows, err := LambdaSweepWorkers([]int{12, 12}, []int{1, 4}, 5, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"{Lambda:1 Router:limited Trials:5 SuccessPct:100 MeanExtra:0.8 MeanBack:0}",
		"{Lambda:1 Router:oracle Trials:5 SuccessPct:100 MeanExtra:0 MeanBack:0}",
		"{Lambda:1 Router:blind Trials:5 SuccessPct:100 MeanExtra:0.8 MeanBack:0}",
		"{Lambda:4 Router:limited Trials:5 SuccessPct:100 MeanExtra:0 MeanBack:0}",
		"{Lambda:4 Router:oracle Trials:5 SuccessPct:100 MeanExtra:0 MeanBack:0}",
		"{Lambda:4 Router:blind Trials:5 SuccessPct:100 MeanExtra:0.8 MeanBack:0}",
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if got := fmt.Sprintf("%+v", r); got != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

func TestGoldenTheoremSweep(t *testing.T) {
	rep, err := TheoremSweepWorkers([]int{12, 12}, 8, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := "{Trials:8 SafeTrials:6 UnsafeTrials:2 PremiseSkipped:0 Violations3:0 Violations4:0 Violations5:0 Arrived:8 MeanExtraHops:0 MeanDetourBound:2}"
	if got := fmt.Sprintf("%+v", rep); got != want {
		t.Errorf("theorem report:\n got %s\nwant %s", got, want)
	}
}
