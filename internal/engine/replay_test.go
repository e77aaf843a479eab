package engine

import (
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/route"
)

// scriptedWedge returns an engine run through the first steps of
// newcomerScript with every flight limited (its 14 flights freeze at step 0)
// and the function that runs one step of the script on it, harvest
// included.
func scriptedWedge(t *testing.T, steps int) (*Engine, func(step int)) {
	t.Helper()
	e, shape := newContentionEngine(t, 8, ContentionConfig{LinkRate: 1, NodeCapacity: 2})
	routers := []route.Router{route.Limited{}, route.Limited{}}
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

// TestReplayCounts pins the work counts of scriptedWedge's 16 steps. Its
// 14 load-oblivious flights are polled at step 0, which freezes them, and
// replayed at steps 1-10: 10*14 = 140. The newcomer injected at step 10 is
// polled behind the prefix and denied, so step 10 freezes all 15, which
// steps 11-15 replay: 5*15 = 75. That is 14 + 1 = 15 polled and
// 140 + 75 = 215 replayed.
func TestReplayCounts(t *testing.T) {
	e, _ := scriptedWedge(t, 16)
	if e.polled != 15 || e.replayed != 215 {
		t.Fatalf("%d flight-steps polled and %d replayed, want 15 and 215", e.polled, e.replayed)
	}
	e.Reset()
	if e.polled != 0 || e.replayed != 0 {
		t.Fatalf("Reset left %d polled and %d replayed", e.polled, e.replayed)
	}
}

// TestWedgedStepAllocFree holds the replay path to zero allocations: a
// frozen load-oblivious prefix, replayed step after step, with the freeze
// after each.
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
