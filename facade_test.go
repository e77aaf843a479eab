package ndmesh

import (
	"strings"
	"testing"
)

func TestConfigValidation(t *testing.T) {
	if _, err := NewSimulation(Config{}); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := NewSimulation(Config{Dims: []int{4, 0}}); err == nil {
		t.Error("zero radix accepted")
	}
}

func TestMustSimulationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSimulation did not panic")
		}
	}()
	MustSimulation(Config{})
}

func TestCoordinateValidation(t *testing.T) {
	sim := MustSimulation(Config{Dims: []int{8, 8}})
	if _, err := sim.NodeAt(C(8, 0)); err == nil {
		t.Error("out-of-range coordinate accepted")
	}
	if _, err := sim.NodeAt(C(1, 2, 3)); err == nil {
		t.Error("wrong-arity coordinate accepted")
	}
	if err := sim.ScheduleFault(1, C(9, 9)); err == nil {
		t.Error("fault outside mesh accepted")
	}
	if err := sim.FailNow(C(-1, 0)); err == nil {
		t.Error("negative coordinate accepted")
	}
	id, err := sim.NodeAt(C(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !sim.CoordOf(id).Equal(C(3, 4)) {
		t.Error("CoordOf roundtrip failed")
	}
}

func TestRouteValidation(t *testing.T) {
	sim := MustSimulation(Config{Dims: []int{8, 8}})
	if _, err := sim.Route(C(1, 1), C(2, 2), "nonsense"); err == nil {
		t.Error("unknown router accepted")
	}
	if _, err := sim.Route(C(1, 1), C(9, 9), "limited"); err == nil {
		t.Error("destination outside mesh accepted")
	}
	res, err := sim.Route(C(1, 1), C(5, 6), "limited")
	if err != nil || !res.Arrived || res.Hops != 9 {
		t.Errorf("fault-free route wrong: %+v, %v", res, err)
	}
}

func TestScheduleLinkFault(t *testing.T) {
	sim := MustSimulation(Config{Dims: []int{10, 10}})
	if err := sim.ScheduleLinkFault(1, C(1, 5), C(2, 5)); err != nil {
		t.Fatal(err)
	}
	// Non-neighbors rejected.
	if err := sim.ScheduleLinkFault(1, C(1, 1), C(3, 1)); err == nil {
		t.Error("non-neighbor link accepted")
	}
	sim.Drain()
	// The deeper endpoint (2,5) failed.
	blocks := sim.Blocks()
	if len(blocks) != 1 || blocks[0].String() != "[2:2, 5:5]" {
		t.Fatalf("blocks = %v, want the deeper endpoint faulted", blocks)
	}
}

func TestGenerateFaultsValidation(t *testing.T) {
	sim := MustSimulation(Config{Dims: []int{10, 10}})
	if err := sim.GenerateFaults(FaultPlan{Faults: 2, Avoid: []Coord{C(99, 99)}}); err == nil {
		t.Error("avoid coordinate outside mesh accepted")
	}
	if err := sim.GenerateFaults(FaultPlan{Faults: 500}); err == nil {
		t.Error("impossible fault count accepted")
	}
	if err := sim.GenerateFaults(FaultPlan{Faults: 3, Interval: 5, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	sim.Drain()
	if len(sim.Blocks()) == 0 {
		t.Error("no blocks after generated faults")
	}
}

func TestEventSummaries(t *testing.T) {
	sim := MustSimulation(Config{Dims: []int{10, 10}, Lambda: 2})
	sim.ScheduleFault(2, C(5, 5))
	sim.ScheduleRecovery(40, C(5, 5))
	sim.Drain()
	evs := sim.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Kind != "fail" || evs[1].Kind != "recover" {
		t.Fatalf("kinds = %s, %s", evs[0].Kind, evs[1].Kind)
	}
	if evs[0].BRounds == 0 || evs[0].CRounds == 0 {
		t.Errorf("construction rounds missing: %+v", evs[0])
	}
	if sim.InfoRecords() != 0 {
		t.Errorf("records remain after full recovery: %d", sim.InfoRecords())
	}
}

// TestRefailWhileCleanDrains: a node recovers and fails again in one later
// step, before the labeling releases it. The information plane must still
// reach quiescence, so Drain stops (its Engine.Run stop rule, Done) well
// inside its budget with the node's singleton block in place.
func TestRefailWhileCleanDrains(t *testing.T) {
	sim := MustSimulation(Config{Dims: []int{10, 10}})
	sim.ScheduleFault(2, C(5, 5))
	sim.ScheduleRecovery(40, C(5, 5))
	sim.ScheduleFault(40, C(5, 5))
	budget := 40 + 32*sim.shape.Diameter() + 64
	if steps := sim.Drain(); steps >= budget/4 {
		t.Fatalf("Drain ran %d steps of its %d budget", steps, budget)
	}
	if blocks := sim.Blocks(); len(blocks) != 1 || blocks[0].String() != "[5:5, 5:5]" {
		t.Fatalf("blocks = %v, want the singleton [5:5, 5:5]", blocks)
	}
}

func TestMultipleFlights(t *testing.T) {
	// Several messages simultaneously, all arriving despite a block.
	sim := MustSimulation(Config{Dims: []int{14, 14}, Lambda: 4})
	for _, c := range []Coord{C(6, 6), C(7, 7)} {
		sim.FailNow(c)
	}
	sim.Stabilize()
	pairs := [][2]Coord{
		{C(1, 1), C(12, 12)},
		{C(12, 1), C(1, 12)},
		{C(6, 1), C(6, 12)},
		{C(1, 7), C(12, 7)},
	}
	for _, p := range pairs {
		res, err := sim.Route(p[0], p[1], "limited")
		if err != nil {
			t.Fatal(err)
		}
		if !res.Arrived {
			t.Errorf("%v -> %v did not arrive: %+v", p[0], p[1], res)
		}
		if res.Backtracks > 0 {
			t.Errorf("%v -> %v backtracked with full information: %+v", p[0], p[1], res)
		}
	}
}

func TestDimsAndNumNodes(t *testing.T) {
	sim := MustSimulation(Config{Dims: []int{3, 4, 5}})
	dims := sim.Dims()
	if len(dims) != 3 || dims[0] != 3 || dims[2] != 5 {
		t.Fatalf("Dims = %v", dims)
	}
	if sim.NumNodes() != 60 {
		t.Fatalf("NumNodes = %d", sim.NumNodes())
	}
}

func TestRenderSliceSelection(t *testing.T) {
	sim := MustSimulation(Config{Dims: []int{6, 6, 6}})
	sim.FailNow(C(2, 3, 4))
	sim.Stabilize()
	if !strings.Contains(sim.Render(C(0, 0, 4)), "X") {
		t.Error("fault missing from its slice")
	}
	if strings.Contains(sim.Render(C(0, 0, 0)), "X") {
		t.Error("fault visible in the wrong slice")
	}
}

func TestStabilizeRoundsStopsEarly(t *testing.T) {
	sim := MustSimulation(Config{Dims: []int{8, 8}})
	if n := sim.StabilizeRounds(10); n != 0 {
		t.Fatalf("idle StabilizeRounds = %d", n)
	}
	sim.FailNow(C(4, 4))
	total := 0
	for i := 0; i < 100; i++ {
		n := sim.StabilizeRounds(5)
		total += n
		if n < 5 {
			break
		}
	}
	if total == 0 {
		t.Fatal("no rounds executed")
	}
	if n := sim.StabilizeRounds(5); n != 0 {
		t.Fatalf("rounds after quiescence: %d", n)
	}
}

func TestClassifySourceExported(t *testing.T) {
	blocks := []Box{mustBox(C(3, 4), C(5, 6))}
	if ClassifySource(blocks, C(4, 1), C(4, 9)) {
		t.Error("column through block should be unsafe")
	}
	if !ClassifySource(blocks, C(1, 1), C(9, 9)) {
		t.Error("corner route should be safe")
	}
}

func mustBox(lo, hi Coord) Box {
	return Box{Lo: lo, Hi: hi}
}
