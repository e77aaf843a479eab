package engine

import (
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/route"
)

// scriptedWedge returns an engine run through the first steps of
// newcomerScript (its 14 flights freeze at step 0) and the function that
// runs one step of the script on it, harvest included.
func scriptedWedge(t *testing.T, steps int) (*Engine, func(step int)) {
	t.Helper()
	e, shape := newContentionEngine(t, 8, ContentionConfig{LinkRate: 1, NodeCapacity: 2})
	routers := []route.Router{route.Limited{}, route.Congested{}}
	step := func(step int) {
		newcomerScript(step, func(src, dst grid.Coord, k int) {
			if _, err := e.Inject(shape.Index(src), shape.Index(dst), routers[k]); err != nil {
				t.Fatal(err)
			}
		})
		e.Step()
		e.DetachDone(nil)
	}
	for i := range steps {
		step(i)
	}
	return e, step
}

// TestReplayCounts pins the work counts of newcomerScript's 16 steps. Its
// 14 flights freeze at step 0. The prefix holds a congested flight, so it
// replays from step 2, once two steps' denials agree, through step 10,
// where the newcomer is polled behind it: 9 replays of 14. The newcomer
// changes its link every step after, so steps 11-15 poll all 15:
// 14 + 14 + 1 + 5*15 = 104 polled.
func TestReplayCounts(t *testing.T) {
	e, _ := scriptedWedge(t, 16)
	if e.polled != 104 || e.replayed != 126 {
		t.Fatalf("%d flight-steps polled and %d replayed, want 104 and 126", e.polled, e.replayed)
	}
	e.Reset()
	if e.polled != 0 || e.replayed != 0 {
		t.Fatalf("Reset left %d polled and %d replayed", e.polled, e.replayed)
	}
}

// TestWedgedStepAllocFree holds the replay path to zero allocations: a
// frozen prefix holding a congested flight, replayed step after step, with
// the freeze and the denial comparison after each.
func TestWedgedStepAllocFree(t *testing.T) {
	e, step := scriptedWedge(t, 4)
	polled, replayed := e.polled, e.replayed
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, func() { step(4) }); allocs != 0 {
		t.Errorf("a replayed step allocates %.1f/op, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up run.
	if e.polled != polled || e.replayed != replayed+(runs+1)*14 {
		t.Fatalf("%d polled and %d replayed in %d steps, want 0 and %d",
			e.polled-polled, e.replayed-replayed, runs+1, (runs+1)*14)
	}
}
