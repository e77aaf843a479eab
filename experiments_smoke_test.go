package ndmesh

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

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

// TestLongHaulSweepsOnSmallMeshes: the sweeps that draw long-haul
// endpoints (E11-E13, E15, E15b, E18) return an error at once on a mesh
// whose interior holds no pair at half the diameter — they used to spin
// forever in the draw — and still run on a small square that does (the
// smallest one their fault schedules fit on). Just below that square the
// schedule does not fit; every error names the sweep and the mesh.
func TestLongHaulSweepsOnSmallMeshes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		runs  int // the radix of the smallest square the sweep runs on
		fails int // a radix above 4 whose square the schedule does not fit (0: none)
		sweep func(dims []int) error
	}{
		{"theorem", 12, 10, func(dims []int) error {
			_, err := TheoremSweepWorkers(dims, 2, 1, 1)
			return err
		}},
		{"degradation", 5, 0, func(dims []int) error {
			opt := DefaultDegradation()
			opt.Dims, opt.Faults, opt.Intervals, opt.Trials = dims, 1, []int{8}, 2
			_, err := DegradationSweepWorkers(opt, 1, 1)
			return err
		}},
		{"lambda", 6, 5, func(dims []int) error {
			_, err := LambdaSweepWorkers(dims, []int{1}, 2, 1, 1)
			return err
		}},
		{"traffic", 5, 0, func(dims []int) error {
			_, err := TrafficSweepWorkers(dims, 2, 1, 8, 1, 1)
			return err
		}},
	} {
		shapes := [][]int{{4, 4}, {3, 3, 3}}
		if tc.fails > 0 {
			shapes = append(shapes, []int{tc.fails, tc.fails})
		}
		for _, dims := range shapes {
			res := make(chan error, 1)
			go func() { res <- tc.sweep(dims) }()
			select {
			case err := <-res:
				want := fmt.Sprintf("ndmesh: %s sweep on %s: ", tc.name, strings.Trim(strings.ReplaceAll(fmt.Sprint(dims), " ", "x"), "[]"))
				if err == nil || !strings.HasPrefix(err.Error(), want) {
					t.Errorf("%s on %v: error %v, want one that starts %q", tc.name, dims, err, want)
				}
			case <-time.After(time.Second):
				t.Fatalf("%s on %v: still running after 1 s", tc.name, dims)
			}
		}
		if err := tc.sweep([]int{tc.runs, tc.runs}); err != nil {
			t.Errorf("%s on %dx%[2]d: %v", tc.name, tc.runs, err)
		}
	}
}

// TestSweepsRejectNegativeCounts: a negative trial or message count is an
// error naming the sweep, the mesh and the count, never a panic (each of
// these used to size a slice by it).
func TestSweepsRejectNegativeCounts(t *testing.T) {
	dims := []int{16, 16}
	for _, tc := range []struct {
		want  string
		sweep func() error
	}{
		{"ndmesh: theorem sweep on 16x16: trials -1 < 1", func() error {
			_, err := TheoremSweepWorkers(dims, -1, 1, 1)
			return err
		}},
		{"ndmesh: lambda sweep on 16x16: trials -1 < 1", func() error {
			_, err := LambdaSweepWorkers(dims, []int{1}, -1, 1, 1)
			return err
		}},
		{"ndmesh: oscillation sweep on 16x16: trials -1 < 1", func() error {
			_, err := OscillationSweepWorkers(dims, 6, []int{4}, -1, 1, 1)
			return err
		}},
		{"ndmesh: traffic sweep on 16x16: messages -1 < 1", func() error {
			_, err := TrafficSweepWorkers(dims, -1, 8, 4, 1, 1)
			return err
		}},
		{"ndmesh: degradation sweep on 16x16: trials -1 < 1", func() error {
			opt := DefaultDegradation()
			opt.Dims, opt.Trials = dims, -1
			_, err := DegradationSweepWorkers(opt, 1, 1)
			return err
		}},
	} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: panicked: %v", tc.want, p)
				}
			}()
			if err := tc.sweep(); err == nil || err.Error() != tc.want {
				t.Errorf("error %v, want %q", err, tc.want)
			}
		}()
	}
}
