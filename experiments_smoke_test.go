package ndmesh

import "testing"

func TestSmokeTheoremSweep(t *testing.T) {
	rep, err := TheoremSweepWorkers([]int{12, 12}, 5, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", rep)
	if rep.Violations3+rep.Violations4+rep.Violations5 > 0 {
		t.Errorf("theorem violations: %+v", rep)
	}
	if rep.Arrived == 0 {
		t.Errorf("no trial arrived: %+v", rep)
	}
}

func TestSmokeDegradation(t *testing.T) {
	opt := DefaultDegradation()
	opt.Dims = []int{12, 12}
	opt.Trials = 3
	opt.Intervals = []int{4, 32}
	rows, err := DegradationSweepWorkers(opt, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%+v", r)
		if r.SuccessPct < 100 {
			t.Errorf("router %s at interval %d: success %.0f%%", r.Router, r.Interval, r.SuccessPct)
		}
	}
}

func TestSmokeConvergence(t *testing.T) {
	rows, err := ConvergenceSweepWorkers([][]int{{12, 12}, {8, 8, 8}}, 3, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%+v", r)
		if r.BRounds == 0 {
			t.Errorf("no identification activity for %+v", r)
		}
	}
}

func TestSmokeTraffic(t *testing.T) {
	rows, err := TrafficSweepWorkers([]int{14, 14}, 8, 4, 10, 21, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%+v", r)
		if r.ArrivedPct < 80 {
			t.Errorf("router %s arrived only %.0f%%", r.Router, r.ArrivedPct)
		}
	}
}
