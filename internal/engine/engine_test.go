package engine

import (
	"testing"

	"ndmesh/internal/core"
	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/route"
)

func newEngine(t *testing.T, dims []int, lambda int, sched *fault.Schedule) *Engine {
	t.Helper()
	shape, err := grid.NewShape(dims...)
	if err != nil {
		t.Fatal(err)
	}
	return New(core.New(mesh.New(shape)), lambda, sched)
}

// TestFigure7StepAnatomy checks the per-step phase ordering: a fault
// scheduled at step s is applied before the λ information rounds of step
// s, and the routing message moves exactly one hop per step regardless of
// λ.
func TestFigure7StepAnatomy(t *testing.T) {
	shape := grid.MustShape(10, 10)
	node := shape.Index(grid.Coord{5, 5})
	sched := &fault.Schedule{Events: []fault.Event{{Step: 3, Node: node, Kind: fault.Fail}}}
	eng := newEngine(t, []int{10, 10}, 4, sched)

	src := shape.Index(grid.Coord{1, 1})
	dst := shape.Index(grid.Coord{8, 8})
	fl, err := eng.Inject(src, dst, route.Limited{})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		eng.Step()
		if eng.Model.M.Status(node) == mesh.Faulty {
			t.Fatalf("fault applied early at step %d", step)
		}
		// One hop per step.
		if fl.Msg.Hops != step+1 {
			t.Fatalf("hops = %d after %d steps", fl.Msg.Hops, step+1)
		}
	}
	eng.Step() // step 3: fault detection applies the event
	if eng.Model.M.Status(node) != mesh.Faulty {
		t.Fatal("fault not applied at its step")
	}
	// λ = 4 rounds ran during step 3.
	if eng.RoundsRun != 4*4 {
		t.Fatalf("RoundsRun = %d, want 16", eng.RoundsRun)
	}
	if eng.StepCount() != 4 {
		t.Fatalf("StepCount = %d", eng.StepCount())
	}
}

// TestEventRecordsConvergence: every event gets a_i/b_i/c_i and the
// one-hop-per-round protocols yield positive b and c for a real block.
func TestEventRecordsConvergence(t *testing.T) {
	shape := grid.MustShape(12, 12)
	sched := &fault.Schedule{}
	// Two diagonal faults at step 2 (one block), then a far fault at step 60.
	for _, c := range []grid.Coord{{5, 5}, {6, 6}} {
		sched.Events = append(sched.Events, fault.Event{Step: 2, Node: shape.Index(c), Kind: fault.Fail})
	}
	sched.Events = append(sched.Events, fault.Event{Step: 60, Node: shape.Index(grid.Coord{2, 9}), Kind: fault.Fail})
	eng := newEngine(t, []int{12, 12}, 1, sched)
	eng.Run(400)
	if len(eng.Events) != 3 {
		t.Fatalf("event records = %d, want 3", len(eng.Events))
	}
	// The second same-step event's record absorbs the block construction
	// (both were applied at step 2; the first was finalized immediately).
	rec := eng.Events[1]
	if rec.ARounds == 0 {
		t.Errorf("diagonal faults should take labeling rounds: %+v", rec)
	}
	if rec.BRounds == 0 || rec.CRounds == 0 {
		t.Errorf("identification/boundary rounds missing: %+v", rec)
	}
	if rec.BSteps != rec.BRounds || rec.CSteps != rec.CRounds {
		t.Errorf("λ=1 must give steps == rounds: %+v", rec)
	}
	if rec.EMaxAfter != 2 {
		t.Errorf("EMaxAfter = %d, want 2", rec.EMaxAfter)
	}
	if rec.RecordsAfter == 0 {
		t.Errorf("no records after construction: %+v", rec)
	}
	// λ scaling: the same scenario with λ=4 needs roughly a quarter of
	// the steps for the same rounds.
	eng4 := newEngine(t, []int{12, 12}, 4, &fault.Schedule{Events: sched.Events})
	eng4.Run(400)
	rec4 := eng4.Events[1]
	if rec4.BSteps > (rec4.BRounds+3)/4 {
		t.Errorf("λ=4 steps not scaled: %+v", rec4)
	}
}

// TestInjectValidation: source == destination is rejected.
func TestInjectValidation(t *testing.T) {
	eng := newEngine(t, []int{6, 6}, 1, nil)
	if _, err := eng.Inject(3, 3, route.Limited{}); err == nil {
		t.Fatal("self-injection accepted")
	}
}

// TestBlindIgnoresStore: every flight routes through the engine's one
// shared context, store included, so the blind router's isolation from the
// information model is a property of its Decide, not of a context built
// without the store. A blind flight through the engine must walk exactly as
// a blind message advanced with a store-less context on the same fabric.
func TestBlindIgnoresStore(t *testing.T) {
	shape := grid.MustShape(12, 12)
	sched := &fault.Schedule{}
	for _, c := range []grid.Coord{{5, 5}, {6, 6}, {5, 7}} {
		sched.Events = append(sched.Events, fault.Event{Step: 0, Node: shape.Index(c), Kind: fault.Fail})
	}
	eng := newEngine(t, []int{12, 12}, 1, sched)
	eng.Run(400)
	if eng.Model.Store.TotalRecords() == 0 {
		t.Fatal("no records deposited: the test would prove nothing")
	}
	src, dst := shape.Index(grid.Coord{1, 6}), shape.Index(grid.Coord{10, 6})
	fl, err := eng.Inject(src, dst, route.Blind{})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFlights(400)
	ref := route.NewMessage(src, dst)
	ctx := route.Context{M: eng.Model.M}
	for route.AdvanceGated(&ctx, route.Blind{}, ref, nil) {
	}
	got, want := fl.Msg, ref
	if !got.Arrived || got.Hops != want.Hops || got.Backtracks != want.Backtracks || got.Steps != want.Steps {
		t.Fatalf("blind flight through the engine: %v, store-less reference: %v", got, want)
	}
	if lim, _ := eng.Inject(src, dst, route.Limited{}); lim == nil {
		t.Fatal("inject failed")
	} else if eng.RunFlights(400); lim.Msg.Hops >= got.Hops {
		t.Fatalf("limited (%d hops) should beat blind (%d hops) here, or the records play no part", lim.Msg.Hops, got.Hops)
	}
}

// TestDoneAndRun: Done requires schedule drained, flights finished, model
// quiescent.
func TestDoneAndRun(t *testing.T) {
	shape := grid.MustShape(8, 8)
	sched := &fault.Schedule{Events: []fault.Event{
		{Step: 2, Node: shape.Index(grid.Coord{4, 4}), Kind: fault.Fail},
	}}
	eng := newEngine(t, []int{8, 8}, 1, sched)
	if eng.Done() {
		t.Fatal("engine done before running")
	}
	steps, _ := eng.Run(1000)
	if !eng.Done() {
		t.Fatalf("engine not done after %d steps", steps)
	}
	// The last event must be finalized by Run.
	if len(eng.Events) != 1 || !eng.Events[0].finalized {
		t.Fatal("event not finalized")
	}
}

// TestRunFlightsStopsEarly: RunFlights ends as soon as messages are done,
// even if the model still has work.
func TestRunFlightsStopsEarly(t *testing.T) {
	shape := grid.MustShape(8, 8)
	sched := &fault.Schedule{Events: []fault.Event{
		{Step: 1, Node: shape.Index(grid.Coord{4, 4}), Kind: fault.Fail},
	}}
	eng := newEngine(t, []int{8, 8}, 1, sched)
	fl, _ := eng.Inject(shape.Index(grid.Coord{1, 1}), shape.Index(grid.Coord{2, 1}), route.Limited{})
	eng.RunFlights(100)
	if !fl.Msg.Arrived {
		t.Fatal("short flight did not arrive")
	}
	if eng.StepCount() > 5 {
		t.Fatalf("RunFlights overran: %d steps", eng.StepCount())
	}
}

// TestLambdaDefaulting: λ < 1 is clamped.
func TestLambdaDefaulting(t *testing.T) {
	eng := newEngine(t, []int{4, 4}, 0, nil)
	if eng.Lambda != 1 {
		t.Fatalf("lambda = %d", eng.Lambda)
	}
}

// TestRecoveryEventKind: recovery events are applied as rule 5.
func TestRecoveryEventKind(t *testing.T) {
	shape := grid.MustShape(8, 8)
	node := shape.Index(grid.Coord{4, 4})
	sched := &fault.Schedule{Events: []fault.Event{
		{Step: 1, Node: node, Kind: fault.Fail},
		{Step: 30, Node: node, Kind: fault.Recover},
	}}
	eng := newEngine(t, []int{8, 8}, 1, sched)
	eng.Run(400)
	if eng.Model.M.Status(node) != mesh.Enabled {
		t.Fatalf("recovered node = %v, want enabled", eng.Model.M.Status(node))
	}
	if len(eng.Events) != 2 || eng.Events[1].Kind != fault.Recover {
		t.Fatalf("events = %+v", eng.Events)
	}
}

// TestInjectAllocsPerSlab pins the allocation contract of Inject: a slab
// miss cuts 64 flights and one path-stack and one used-direction arena for
// their headers — three allocations for 64 injections, headers included —
// and re-injecting recycled flights allocates nothing.
func TestInjectAllocsPerSlab(t *testing.T) {
	e := newEngine(t, []int{32, 32}, 1, nil)
	inject := func() {
		for i := 0; i < flightSlab; i++ {
			if _, err := e.Inject(grid.NodeID(i), grid.NodeID(1000-i), route.Limited{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fresh := func() {
		e.ClearFlights()
		e.spareFlights, e.slab = e.spareFlights[:0], nil // forget the flights: the next Inject misses
		inject()
	}
	if allocs := testing.AllocsPerRun(10, fresh); allocs != 3 {
		t.Errorf("64 injections into a fresh slab: %.1f allocs, want 3 (slab + two header arenas)", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { e.ClearFlights(); inject() }); allocs != 0 {
		t.Errorf("64 recycled injections: %.1f allocs, want 0", allocs)
	}
}
