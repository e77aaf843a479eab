package fault

import (
	"fmt"
	"slices"
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/rng"
)

func processShape(t *testing.T) *grid.Shape {
	t.Helper()
	shape, err := grid.NewShape(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	return shape
}

// TestGenerateProcessDeterministic pins the purity contract: the same
// (shape, options, stream) yields the identical schedule, and different
// seeds yield different ones.
func TestGenerateProcessDeterministic(t *testing.T) {
	shape := processShape(t)
	opt := ProcessOptions{
		Arrival: Delay{Model: DelayBernoulli, Rate: 0.05},
		Repair:  Delay{Model: DelayBernoulli, Rate: 0.02},
		Start:   1, Horizon: 400, MinSpacing: 2,
	}
	a, err := GenerateProcess(shape, opt, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateProcess(shape, opt, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Events) != fmt.Sprint(b.Events) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a.Events, b.Events)
	}
	c, err := GenerateProcess(shape, opt, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Events) == fmt.Sprint(c.Events) {
		t.Fatal("different seeds produced the identical schedule")
	}
	if a.NumFaults() == 0 {
		t.Fatal("rate 0.05 over 400 steps produced no faults")
	}
}

// TestGenerateProcessSpansHorizon checks that arrivals land inside
// [Start, Horizon], honor the placement rules (no border, spacing against
// the live faulty set), and that repairs follow their failures.
func TestGenerateProcessSpansHorizon(t *testing.T) {
	shape := processShape(t)
	const start, horizon = 10, 600
	opt := ProcessOptions{
		Arrival: Delay{Model: DelayBernoulli, Rate: 0.08},
		Repair:  Delay{Model: DelayBernoulli, Rate: 0.05},
		Start:   start, Horizon: horizon, MinSpacing: 3,
	}
	sched, err := GenerateProcess(shape, opt, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if sched.NumFaults() < 5 {
		t.Fatalf("expected a populated schedule, got %d faults", sched.NumFaults())
	}
	failAt := map[grid.NodeID]int{}
	sawLate := false
	for _, ev := range sched.Events {
		switch ev.Kind {
		case Fail:
			if ev.Step < start || ev.Step > horizon {
				t.Fatalf("fail at step %d outside [%d, %d]", ev.Step, start, horizon)
			}
			if shape.OnBorder(ev.Node) {
				t.Fatalf("fault on the outermost surface: node %v", shape.CoordOf(ev.Node))
			}
			if ev.Step > horizon/2 {
				sawLate = true
			}
			failAt[ev.Node] = ev.Step
		case Recover:
			fs, ok := failAt[ev.Node]
			if !ok || ev.Step <= fs {
				t.Fatalf("recover at step %d without a preceding fail (fail step %d)", ev.Step, fs)
			}
			delete(failAt, ev.Node)
		}
	}
	if !sawLate {
		t.Fatal("no arrival in the second half of the horizon — the process is front-loaded")
	}
}

// TestGenerateProcessRepairReopens checks that with repair enabled a node
// may fail more than once: the active set shrinks on repair, so a long
// horizon at a high rate revisits nodes.
func TestGenerateProcessRepairReopens(t *testing.T) {
	shape := processShape(t)
	opt := ProcessOptions{
		Arrival: Delay{Model: DelayBernoulli, Rate: 0.5},
		Repair:  Delay{Model: DelayBernoulli, Rate: 0.5},
		Start:   1, Horizon: 4000,
	}
	sched, err := GenerateProcess(shape, opt, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	fails := map[grid.NodeID]int{}
	refailed := false
	for _, ev := range sched.Events {
		if ev.Kind == Fail {
			fails[ev.Node]++
			if fails[ev.Node] > 1 {
				refailed = true
			}
		}
	}
	if !refailed {
		t.Fatal("4000 high-rate steps with repair never re-failed a node")
	}
}

// TestGenerateProcessMaxActive pins the concurrency cap: replaying the
// schedule in order, the faulty population never exceeds MaxActive.
func TestGenerateProcessMaxActive(t *testing.T) {
	shape := processShape(t)
	opt := ProcessOptions{
		Arrival: Delay{Model: DelayBernoulli, Rate: 0.4},
		Repair:  Delay{Model: DelayBernoulli, Rate: 0.05},
		Start:   1, Horizon: 1000,
		MaxActive: 3,
	}
	sched, err := GenerateProcess(shape, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, ev := range sched.Events {
		if ev.Kind == Fail {
			active++
		} else {
			active--
		}
		// Same-step repairs are conservatively counted still-faulty by the
		// generator, so the replay bound matches exactly.
		if active > opt.MaxActive {
			t.Fatalf("active faults %d exceed MaxActive %d at step %d", active, opt.MaxActive, ev.Step)
		}
	}
}

// TestGenerateProcessWeibull checks the weibull model: valid schedules,
// distinct from bernoulli at the same rate, and a shape-dependent draw.
func TestGenerateProcessWeibull(t *testing.T) {
	shape := processShape(t)
	wopt := ProcessOptions{
		Arrival: Delay{Model: DelayWeibull, Rate: 0.05, Shape: 2},
		Start:   1, Horizon: 800,
	}
	w, err := GenerateProcess(shape, wopt, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	bopt := wopt
	bopt.Arrival = Delay{Model: DelayBernoulli, Rate: 0.05}
	b, err := GenerateProcess(shape, bopt, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if w.NumFaults() == 0 || b.NumFaults() == 0 {
		t.Fatalf("empty schedules: weibull %d, bernoulli %d", w.NumFaults(), b.NumFaults())
	}
	if fmt.Sprint(w.Events) == fmt.Sprint(b.Events) {
		t.Fatal("weibull and bernoulli arrivals produced identical schedules")
	}
}

// TestGenerateProcessValidation covers the error paths, each one Check's
// too.
func TestGenerateProcessValidation(t *testing.T) {
	shape := processShape(t)
	cases := []ProcessOptions{
		{Arrival: Delay{Model: "poisson", Rate: 0.1}, Horizon: 10},                 // unknown model
		{Arrival: Delay{Model: DelayBernoulli, Rate: 0}, Horizon: 10},              // rate 0
		{Arrival: Delay{Model: DelayBernoulli, Rate: 1.5}, Horizon: 10},            // rate > 1
		{Arrival: Delay{Model: DelayBernoulli, Rate: 0.1}, Start: 20, Horizon: 10}, // horizon < start
		{Arrival: Delay{Model: DelayBernoulli, Rate: 0.1}, Horizon: 10,
			Repair: Delay{Model: "fixed", Rate: 0.1}}, // bad repair model
		{Arrival: Delay{Model: DelayBernoulli, Rate: 0.1}, Horizon: 10, MaxActive: -1},
	}
	for i, opt := range cases {
		if _, err := GenerateProcess(shape, opt, rng.New(1)); err == nil {
			t.Errorf("case %d: expected an error, got none", i)
		}
		if err := opt.Check(); err == nil {
			t.Errorf("case %d: Check passed what GenerateProcess refuses", i)
		}
	}
	ok := ProcessOptions{Arrival: Delay{Model: DelayWeibull, Rate: 0.1}, Horizon: 10}
	if err := ok.Check(); err != nil {
		t.Errorf("Check refused a drawable process: %v", err)
	}
}

// TestProcessScratchReuseMatchesFresh draws a run of schedules through one
// Scratch into one Schedule — arrival models, repair on and off, clustering
// and a cap, each followed by a fixed-count draw, so the scratch carries
// every kind of leftover from either generator into the other — and holds
// each to a fresh GenerateProcess or Generate of the same arguments; a warm
// repeat of the largest draw allocates nothing.
func TestProcessScratchReuseMatchesFresh(t *testing.T) {
	shape := processShape(t)
	opts := []ProcessOptions{
		{Arrival: Delay{Model: DelayBernoulli, Rate: 0.2}, Repair: Delay{Model: DelayBernoulli, Rate: 0.05}, Start: 1, Horizon: 600},
		{Arrival: Delay{Model: DelayWeibull, Rate: 0.1, Shape: 0.7}, Start: 4, Horizon: 200, MinSpacing: 2},
		{Arrival: Delay{Model: DelayBernoulli, Rate: 0.3}, Repair: Delay{Model: DelayWeibull, Rate: 0.1, Shape: 1.5}, Start: 1, Horizon: 300, Clustered: true},
		{Arrival: Delay{Model: DelayBernoulli, Rate: 0.5}, Start: 1, Horizon: 100, MaxActive: 3},
		{Arrival: Delay{Model: DelayBernoulli, Rate: 0.01}, Start: 1, Horizon: 2},
	}
	fixed := []struct {
		faults int
		opt    Options
	}{
		{9, Options{Interval: 7, Start: 3, MinSpacing: 3, RecoverAfter: 5}},
		{14, Options{Interval: 2, Clustered: true}},
		{4, Options{Interval: 1, Start: 1, Exclude: []grid.NodeID{shape.Index(grid.Coord{6, 6})}, ExcludeRadius: 3}},
	}
	var ps Scratch
	var sched Schedule
	for round := 0; round < 2; round++ {
		for i, opt := range opts {
			seed := uint64(10*round + i)
			want, err := GenerateProcess(shape, opt, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := ps.GenerateProcess(&sched, shape, opt, rng.New(seed)); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sched.Events, want.Events) {
				t.Fatalf("round %d case %d: reused scratch drew %v, fresh %v", round, i, sched.Events, want.Events)
			}
			f := fixed[(round+i)%len(fixed)]
			want, err = Generate(shape, f.faults, f.opt, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := ps.Generate(&sched, shape, f.faults, f.opt, rng.New(seed)); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sched.Events, want.Events) {
				t.Fatalf("round %d case %d: reused scratch drew the fixed count %v, fresh %v", round, i, sched.Events, want.Events)
			}
		}
	}
	r := rng.New(0)
	warm := func() {
		r.Reseed(0)
		if err := ps.GenerateProcess(&sched, shape, opts[0], r); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	if n := testing.AllocsPerRun(5, warm); n != 0 {
		t.Fatalf("a warm draw allocates %v times", n)
	}
	// An invalid draw reports the error and leaves the schedule as it was.
	before := slices.Clone(sched.Events)
	if err := ps.GenerateProcess(&sched, shape, ProcessOptions{Arrival: Delay{Model: "x", Rate: 0.1}, Horizon: 9}, r); err == nil {
		t.Fatal("an unknown arrival model drew a schedule")
	}
	if !slices.Equal(sched.Events, before) {
		t.Fatal("a failed draw changed the schedule")
	}
}
