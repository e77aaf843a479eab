package fault

import (
	"slices"
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
)

func TestKindString(t *testing.T) {
	if Fail.String() != "fail" || Recover.String() != "recover" {
		t.Fatal("kind strings wrong")
	}
}

func TestScheduleSortAndAccessors(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Step: 9, Node: 1, Kind: Fail},
		{Step: 3, Node: 2, Kind: Fail},
		{Step: 3, Node: 3, Kind: Recover},
	}}
	s.Sort()
	if s.Events[0].Step != 3 || s.Events[2].Step != 9 {
		t.Fatalf("not sorted: %+v", s.Events)
	}
	// Stable for same-step events.
	if s.Events[0].Node != 2 || s.Events[1].Node != 3 {
		t.Fatalf("sort not stable: %+v", s.Events)
	}
	if s.NumFaults() != 2 {
		t.Fatalf("NumFaults = %d", s.NumFaults())
	}
	if s.LastStep() != 9 {
		t.Fatalf("LastStep = %d", s.LastStep())
	}
	if (&Schedule{}).LastStep() != 0 {
		t.Fatal("empty LastStep != 0")
	}
}

// TestScheduleSortKeepsEqualStepOrder pins the order Sort leaves events
// of equal steps in: the order they were appended, for every kind mix and
// however the steps interleave (a Fail and a Recover of one step apply in
// schedule order, so the order is behaviour, not presentation).
func TestScheduleSortKeepsEqualStepOrder(t *testing.T) {
	s := &Schedule{}
	// Node ids number the events in append order; steps cycle 5, 2, 8, 2,
	// 5, ... so every step holds several events of both kinds.
	steps := []int{5, 2, 8}
	for i := 0; i < 30; i++ {
		s.Events = append(s.Events, Event{Step: steps[i%3], Node: grid.NodeID(i), Kind: Kind(i / 3 % 2)})
	}
	s.Sort()
	var want []Event
	for _, step := range []int{2, 5, 8} {
		for i := 0; i < 30; i++ {
			if steps[i%3] == step {
				want = append(want, Event{Step: step, Node: grid.NodeID(i), Kind: Kind(i / 3 % 2)})
			}
		}
	}
	if !slices.Equal(s.Events, want) {
		t.Fatalf("sorted %v, want %v", s.Events, want)
	}
	if n := testing.AllocsPerRun(10, s.Sort); n != 0 {
		t.Fatalf("Sort allocates %v times", n)
	}
}

func TestGenerateRespectsConstraints(t *testing.T) {
	shape := meshtest.MustShape(16, 16)
	r := rng.New(5)
	exclude := []grid.NodeID{shape.Index(grid.Coord{8, 8})}
	sched, err := Generate(shape, 6, Options{
		Interval:      10,
		Start:         4,
		Exclude:       exclude,
		ExcludeRadius: 2,
		MinSpacing:    4,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) != 6 {
		t.Fatalf("event count = %d", len(sched.Events))
	}
	var placed []grid.NodeID
	for i, ev := range sched.Events {
		if ev.Kind != Fail {
			t.Fatalf("unexpected kind %v", ev.Kind)
		}
		if ev.Step != 4+10*i {
			t.Fatalf("step %d = %d, want %d", i, ev.Step, 4+10*i)
		}
		if shape.OnBorder(ev.Node) {
			t.Fatalf("fault on the outermost surface: %v", shape.CoordOf(ev.Node))
		}
		for _, ex := range exclude {
			if shape.Distance(ev.Node, ex) <= 2 {
				t.Fatalf("fault too close to excluded node")
			}
		}
		for _, p := range placed {
			dx := shape.Component(ev.Node, 0) - shape.Component(p, 0)
			dy := shape.Component(ev.Node, 1) - shape.Component(p, 1)
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			cheb := dx
			if dy > cheb {
				cheb = dy
			}
			if cheb < 4 {
				t.Fatalf("spacing violated: %v vs %v", shape.CoordOf(ev.Node), shape.CoordOf(p))
			}
		}
		placed = append(placed, ev.Node)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	shape := meshtest.MustShape(12, 12)
	s1, err1 := Generate(shape, 5, Options{MinSpacing: 3}, rng.New(77))
	s2, err2 := Generate(shape, 5, Options{MinSpacing: 3}, rng.New(77))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range s1.Events {
		if s1.Events[i] != s2.Events[i] {
			t.Fatalf("schedules differ at %d", i)
		}
	}
}

func TestGenerateClustered(t *testing.T) {
	shape := meshtest.MustShape(16, 16)
	sched, err := Generate(shape, 8, Options{Clustered: true}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	// All faults must form one connected cluster (Chebyshev-adjacent to
	// some earlier fault... actually mesh-adjacent to an earlier fault).
	placed := []grid.NodeID{sched.Events[0].Node}
	for _, ev := range sched.Events[1:] {
		adjacent := false
		for _, p := range placed {
			if shape.Distance(ev.Node, p) == 1 {
				adjacent = true
				break
			}
		}
		if !adjacent {
			t.Fatalf("clustered fault %v not adjacent to the cluster", shape.CoordOf(ev.Node))
		}
		placed = append(placed, ev.Node)
	}
}

func TestGenerateWithRecoveries(t *testing.T) {
	shape := meshtest.MustShape(12, 12)
	sched, err := Generate(shape, 3, Options{Interval: 20, Start: 5, RecoverAfter: 7}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	fails, recovers := 0, 0
	recoverAt := map[grid.NodeID]int{}
	failAt := map[grid.NodeID]int{}
	for _, ev := range sched.Events {
		switch ev.Kind {
		case Fail:
			fails++
			failAt[ev.Node] = ev.Step
		case Recover:
			recovers++
			recoverAt[ev.Node] = ev.Step
		}
	}
	if fails != 3 || recovers != 3 {
		t.Fatalf("fails=%d recovers=%d", fails, recovers)
	}
	for node, fs := range failAt {
		if recoverAt[node] != fs+7 {
			t.Fatalf("recovery of %v at %d, want %d", shape.CoordOf(node), recoverAt[node], fs+7)
		}
	}
	// Schedule must be sorted by step.
	for i := 1; i < len(sched.Events); i++ {
		if sched.Events[i].Step < sched.Events[i-1].Step {
			t.Fatal("schedule unsorted")
		}
	}
}

func TestGenerateInfeasibleErrors(t *testing.T) {
	shape := meshtest.MustShape(5, 5)
	// Interior is 3x3 = 9 nodes; 10 faults cannot fit.
	if _, err := Generate(shape, 10, Options{}, rng.New(1)); err == nil {
		t.Fatal("infeasible generation succeeded")
	}
}
