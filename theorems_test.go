package ndmesh

// Experiments E9-E13 of the index in experiments.go's header: the theorems
// of the paper validated through the public API on randomized scenarios.

import (
	"slices"
	"testing"

	"ndmesh/internal/block"
	"ndmesh/internal/route"
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

// TestTheorem2 (E10): safe sources always have a minimal path. The limited
// router is guaranteed to take one for a single interior block; these
// separated four-fault sets happen to be routed minimally too, but two
// blocks can defeat it (TestTheorem2PremiseGap).
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

// TestTheorem2PremiseGap pins a multi-block case where the limited router's
// minimality is not guaranteed: on 8x8 with stabilized faults (1,1) and
// (2,6), the pair (0,0)->(2,7) is safe and has a minimal path, yet limited
// takes +x twice (a minimal route goes up column 0 first), lands straight
// below (2,6) and sidesteps around it: 11 hops for a distance of 9.
func TestTheorem2PremiseGap(t *testing.T) {
	sim, err := NewSimulation(Config{Dims: []int{8, 8}, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Coord{C(1, 1), C(2, 6)} {
		if err := sim.FailNow(c); err != nil {
			t.Fatal(err)
		}
	}
	sim.Stabilize()
	src, dst := C(0, 0), C(2, 7)
	srcID, _ := sim.NodeAt(src)
	dstID, _ := sim.NodeAt(dst)
	if !sim.SourceSafe(src, dst) {
		t.Fatal("(0,0) is not safe for (2,7)")
	}
	if !safety.MinimalPathExists(sim.mesh, srcID, dstID) {
		t.Fatal("no minimal path from (0,0) to (2,7)")
	}
	res, err := sim.Route(src, dst, "limited")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Arrived || res.D0 != 9 || res.ExtraHops != 2 || res.Hops != 11 {
		t.Fatalf("limited from (0,0) to (2,7): %+v, want arrival in 11 hops (D0 9, ExtraHops 2)", res)
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

// TestDistanceSamplesAtEvents holds the E11-E13 sampler to D(i)'s
// definition: a message's distance to go when occurrence i is applied,
// sampled only while the message is in flight. A 12x12 λ=1 run, one flight
// (1,1)->(7,1) that needs 6 steps.
func TestDistanceSamplesAtEvents(t *testing.T) {
	type event struct {
		step int
		at   Coord
	}
	for _, tc := range []struct {
		name     string
		events   []event
		injectAt int // steps run before the injection
		want     []int
	}{
		// The occurrence at step 5 catches the message 5 hops in: D(1) = 1.
		// The one at step 10 is after arrival: no sample.
		{"after-arrival", []event{{5, C(9, 9)}, {10, C(2, 9)}}, 0, []int{1}},
		// Two occurrences applied in one step are sampled at one position.
		{"same-step", []event{{3, C(9, 9)}, {3, C(2, 9)}}, 0, []int{3, 3}},
		// An occurrence before the injection has no message to sample.
		{"before-injection", []event{{1, C(9, 9)}, {5, C(2, 9)}}, 3, []int{4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := MustSimulation(Config{Dims: []int{12, 12}})
			for _, ev := range tc.events {
				if err := sim.ScheduleFault(ev.step, ev.at); err != nil {
					t.Fatal(err)
				}
			}
			sim.RunSteps(tc.injectAt)
			fl, err := sim.engine.Inject(sim.shape.Index(C(1, 1)), sim.shape.Index(C(7, 1)), route.Limited{})
			if err != nil {
				t.Fatal(err)
			}
			got := sampleDistances(sim.engine, fl, 200)
			if !fl.Msg.Arrived {
				t.Fatalf("not arrived: %v", fl.Msg)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("D(i) samples = %v, want %v", got, tc.want)
			}
		})
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
