package ndmesh

// Experiments E9-E13 of the index in experiments.go's header: the theorems
// of the paper validated through the public API on randomized scenarios.

import (
	"testing"

	"ndmesh/internal/block"
	"ndmesh/internal/safety"
)

// TestTheorem1 (E9): the constructions of fault recovery do not affect the
// optimal routing — a safe-source message routed while recoveries fire
// stays minimal.
func TestTheorem1(t *testing.T) {
	sim, err := NewSimulation(Config{Dims: []int{16, 16}, Lambda: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A block off the source's axis sections, dissolving mid-route.
	for _, c := range []Coord{C(7, 7), C(8, 8)} {
		if err := sim.FailNow(c); err != nil {
			t.Fatal(err)
		}
	}
	sim.Stabilize()
	if err := sim.ScheduleRecovery(4, C(8, 8)); err != nil {
		t.Fatal(err)
	}
	if err := sim.ScheduleRecovery(10, C(7, 7)); err != nil {
		t.Fatal(err)
	}
	src, dst := C(2, 3), C(13, 12)
	if !sim.SourceSafe(src, dst) {
		t.Fatal("setup: source must be safe")
	}
	res, err := sim.Route(src, dst, "limited")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Arrived || res.ExtraHops != 0 {
		t.Fatalf("recovery affected the optimal routing: %+v", res)
	}
}

// TestTheorem2 (E10): safe sources always have a minimal path; the limited
// router achieves it on static faults.
func TestTheorem2(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		sim, err := NewSimulation(Config{Dims: []int{14, 14}, Lambda: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.GenerateFaults(FaultPlan{Faults: 4, Interval: 1, Seed: seed, MinSpacing: 3}); err != nil {
			t.Fatal(err)
		}
		sim.Drain()
		src, dst := C(1, 1), C(12, 12)
		srcID, _ := sim.NodeAt(src)
		dstID, _ := sim.NodeAt(dst)
		if sim.mesh.Status(srcID) != 0 || sim.mesh.Status(dstID) != 0 {
			continue // endpoint swallowed by a block: outside the premise
		}
		safe := sim.SourceSafe(src, dst)
		minimal := safety.MinimalPathExists(sim.mesh, srcID, dstID)
		if safe && !minimal {
			t.Fatalf("seed %d: safe source without minimal path", seed)
		}
		if safe {
			res, err := sim.Route(src, dst, "limited")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Arrived || res.ExtraHops != 0 {
				t.Fatalf("seed %d: safe source routed non-minimally: %+v", seed, res)
			}
		}
	}
}

// TestTheorem3And4 (E11, E12): randomized conforming dynamic schedules
// produce no violations of the progress recurrence or the k-interval /
// max-detour bounds.
func TestTheorem3And4(t *testing.T) {
	rep, err := TheoremSweepWorkers([]int{16, 16}, 40, 2024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations3 != 0 || rep.Violations4 != 0 {
		t.Fatalf("violations: %+v", rep)
	}
	if rep.SafeTrials == 0 {
		t.Fatalf("no safe trials sampled: %+v", rep)
	}
	if rep.Arrived == 0 {
		t.Fatalf("nothing arrived: %+v", rep)
	}
}

// TestTheorem5 (E13): unsafe-source runs respect the path-length bound.
func TestTheorem5(t *testing.T) {
	rep, err := TheoremSweepWorkers([]int{12, 12}, 80, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations5 != 0 {
		t.Fatalf("Theorem 5 violations: %+v", rep)
	}
	// 3-D as well.
	rep3, err := TheoremSweepWorkers([]int{8, 8, 8}, 30, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Violations3+rep3.Violations4+rep3.Violations5 != 0 {
		t.Fatalf("3-D violations: %+v", rep3)
	}
}

// TestBlocksPublicView cross-checks Simulation.Blocks against the oracle.
func TestBlocksPublicView(t *testing.T) {
	sim, err := NewSimulation(Config{Dims: []int{12, 12}, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim.FailNow(C(4, 4))
	sim.FailNow(C(5, 5))
	sim.Stabilize()
	want := block.Extract(sim.mesh)
	got := sim.Blocks()
	if len(got) != len(want) {
		t.Fatalf("Blocks() = %v", got)
	}
	for i := range got {
		if !got[i].Equal(want[i].Box) {
			t.Fatalf("Blocks()[%d] = %v, want %v", i, got[i], want[i].Box)
		}
	}
}
