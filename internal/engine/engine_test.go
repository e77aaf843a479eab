package engine

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"ndmesh/internal/chunk"
	"ndmesh/internal/core"
	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
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
	shape := meshtest.MustShape(10, 10)
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
	shape := meshtest.MustShape(12, 12)
	sched := &fault.Schedule{}
	// Two diagonal faults at step 2 (one block), then a far fault at step 60.
	for _, c := range []grid.Coord{{5, 5}, {6, 6}} {
		sched.Events = append(sched.Events, fault.Event{Step: 2, Node: shape.Index(c), Kind: fault.Fail})
	}
	sched.Events = append(sched.Events, fault.Event{Step: 60, Node: shape.Index(grid.Coord{2, 9}), Kind: fault.Fail})
	eng := newEngine(t, []int{12, 12}, 1, sched)
	eng.Run(400, eng.Done)
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
	eng4.Run(400, eng4.Done)
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
	shape := meshtest.MustShape(12, 12)
	sched := &fault.Schedule{}
	for _, c := range []grid.Coord{{5, 5}, {6, 6}, {5, 7}} {
		sched.Events = append(sched.Events, fault.Event{Step: 0, Node: shape.Index(c), Kind: fault.Fail})
	}
	eng := newEngine(t, []int{12, 12}, 1, sched)
	eng.Run(400, eng.Done)
	if eng.Model.Store.TotalRecords() == 0 {
		t.Fatal("no records deposited: the test would prove nothing")
	}
	src, dst := shape.Index(grid.Coord{1, 6}), shape.Index(grid.Coord{10, 6})
	fl, err := eng.Inject(src, dst, route.Blind{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(400, eng.Idle)
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
	} else if eng.Run(400, eng.Idle); lim.Msg.Hops >= got.Hops {
		t.Fatalf("limited (%d hops) should beat blind (%d hops) here, or the records play no part", lim.Msg.Hops, got.Hops)
	}
}

// TestDoneAndRun: Done requires schedule drained, flights finished, model
// quiescent.
func TestDoneAndRun(t *testing.T) {
	shape := meshtest.MustShape(8, 8)
	sched := &fault.Schedule{Events: []fault.Event{
		{Step: 2, Node: shape.Index(grid.Coord{4, 4}), Kind: fault.Fail},
	}}
	eng := newEngine(t, []int{8, 8}, 1, sched)
	if eng.Done() {
		t.Fatal("engine done before running")
	}
	steps := eng.Run(1000, eng.Done)
	if !eng.Done() {
		t.Fatalf("engine not done after %d steps", steps)
	}
	// The last event must be finalized by Run: applying it logged only its
	// step, round, kind and node, and finalization fills in the rest.
	if len(eng.Events) != 1 {
		t.Fatalf("event records = %d, want 1", len(eng.Events))
	}
	rec := eng.Events[0]
	if rec.RecordsAfter == 0 || rec.RecordsAfter != eng.Model.Store.TotalRecords() {
		t.Errorf("RecordsAfter = %d, store holds %d: event not finalized", rec.RecordsAfter, eng.Model.Store.TotalRecords())
	}
	if rec.EMaxAfter != 1 {
		t.Errorf("EMaxAfter = %d, want 1 (one faulty node): event not finalized", rec.EMaxAfter)
	}
	if rec.BRounds == 0 || rec.CRounds == 0 || rec.BSteps != rec.BRounds || rec.CSteps != rec.CRounds {
		t.Errorf("identification/boundary rounds not finalized: %+v", rec)
	}
}

// TestRunFlightsStopsEarly: a Run stopped on Idle ends as soon as messages
// are done, even if the model still has work.
func TestRunFlightsStopsEarly(t *testing.T) {
	shape := meshtest.MustShape(8, 8)
	sched := &fault.Schedule{Events: []fault.Event{
		{Step: 1, Node: shape.Index(grid.Coord{4, 4}), Kind: fault.Fail},
	}}
	eng := newEngine(t, []int{8, 8}, 1, sched)
	fl, _ := eng.Inject(shape.Index(grid.Coord{1, 1}), shape.Index(grid.Coord{2, 1}), route.Limited{})
	eng.Run(100, eng.Idle)
	if !fl.Msg.Arrived {
		t.Fatal("short flight did not arrive")
	}
	if eng.StepCount() > 5 {
		t.Fatalf("Run(Idle) overran: %d steps", eng.StepCount())
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
	shape := meshtest.MustShape(8, 8)
	node := shape.Index(grid.Coord{4, 4})
	sched := &fault.Schedule{Events: []fault.Event{
		{Step: 1, Node: node, Kind: fault.Fail},
		{Step: 30, Node: node, Kind: fault.Recover},
	}}
	eng := newEngine(t, []int{8, 8}, 1, sched)
	eng.Run(400, eng.Done)
	if eng.Model.M.Status(node) != mesh.Enabled {
		t.Fatalf("recovered node = %v, want enabled", eng.Model.M.Status(node))
	}
	if len(eng.Events) != 2 || eng.Events[1].Kind != fault.Recover {
		t.Fatalf("events = %+v", eng.Events)
	}
}

// TestInjectAllocsPerSlab pins the allocation contract of Inject: 64
// injections into fresh carvers take the first chunk of flights and the
// first of their headers' path stacks — at most three allocations, headers
// included (two today: a header holds no used-direction table until it
// strays) — and re-injecting recycled flights allocates nothing.
func TestInjectAllocsPerSlab(t *testing.T) {
	e := newEngine(t, []int{32, 32}, 1, nil)
	inject := func() {
		for i := 0; i < flightChunk; i++ {
			if _, err := e.Inject(grid.NodeID(i), grid.NodeID(1000-i), route.Limited{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var total uint64
	for range 10 {
		allocs, _ := freshCost(e, inject)
		total += allocs
	}
	if allocs := float64(total) / 10; allocs > 3 {
		t.Errorf("64 injections into fresh carvers: %.1f allocs, want at most 3 (flight + header chunks)", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { e.ClearFlights(); inject() }); allocs != 0 {
		t.Errorf("64 recycled injections: %.1f allocs, want 0", allocs)
	}
}

// freshCost retires the flights and forgets them, so the pool and the
// tables start over, and returns what inject then allocates, in objects and
// bytes: its injections miss into a first chunk of flights and of path
// stacks. The retired flights went to the old pool, and the new one makes
// its free list at the next retirement, outside what is measured.
func freshCost(e *Engine, inject func()) (allocs, bytes uint64) {
	e.ClearFlights()
	e.spare = chunk.NewPool[Flight](flightChunk, min(e.Model.M.NumNodes(), flightLists))
	e.tables = route.NewTables(e.Model.M.Shape(), flightChunk)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	inject()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestResetRestacksFlights holds Reset to handing the flights out again in
// the order the engine carved them, however the run before recycled them:
// the injections after a Reset get the flights the first run's injections
// got, in the same order, so a rerun finds every header as large as it grew.
func TestResetRestacksFlights(t *testing.T) {
	e := newEngine(t, []int{8, 8}, 1, nil)
	inject := func(n int) []*Flight {
		out := make([]*Flight, n)
		for i := range out {
			f, err := e.Inject(grid.NodeID(i%64), grid.NodeID((i+9)%64), route.Limited{})
			if err != nil {
				t.Fatal(err)
			}
			out[i] = f
		}
		return out
	}
	first := inject(flightChunk + 6) // two chunks
	e.ClearFlights()
	inject(5) // recycled last-in first-out: the last five carved
	e.Reset()
	if again := inject(len(first)); !slices.Equal(again, first) {
		t.Fatal("after Reset the injections got other flights than the first run's, or in another order")
	}
}

// TestRecycledFlightsDropRouter holds the free list to keeping no router:
// a flight recycled by DetachDone or ClearFlights lets go of its router, so
// an engine idle in a pool keeps no oracle table of the run it finished.
func TestRecycledFlightsDropRouter(t *testing.T) {
	e := newEngine(t, []int{8, 8}, 1, nil)
	injected := make([]*Flight, 20)
	for i := range injected {
		f, err := e.Inject(grid.NodeID(i), grid.NodeID(63-i), &route.Oracle{})
		if err != nil {
			t.Fatal(err)
		}
		injected[i] = f
	}
	for i := 0; i < 6; i++ {
		e.Step()
		e.DetachDone(nil)
	}
	if detached := len(injected) - len(e.flights); detached == 0 || len(e.flights) == 0 {
		t.Fatalf("%d flights detached and %d attached: the test needs both", detached, len(e.flights))
	}
	e.ClearFlights()
	for _, f := range injected {
		if f.Router != nil {
			t.Fatal("a recycled flight keeps its router")
		}
	}
}

// TestInjectBytesPerSlab pins what a fresh header costs on a large mesh: 64
// injections into fresh carvers on 256x256 allocate the 64 flights and one
// direction a hop for each header's stack share (512, the power of two at
// or above the diameter), plus at most one page of size-class rounding per
// allocation, and no used-direction table.
func TestInjectBytesPerSlab(t *testing.T) {
	e := newEngine(t, []int{256, 256}, 1, nil)
	_, got := freshCost(e, func() {
		for i := 0; i < flightChunk; i++ {
			if _, err := e.Inject(grid.NodeID(i), grid.NodeID(60000-i), route.Limited{}); err != nil {
				t.Fatal(err)
			}
		}
	})
	const share, page = 512, 8192
	limit := flightChunk*(unsafe.Sizeof(Flight{})+share) + 2*page
	if got > uint64(limit) {
		t.Errorf("64 fresh injections on 256x256 allocated %d bytes, want at most %d", got, limit)
	}
}

// TestFlightListsOnLargeMesh: the flight lists start with room for a flight
// per node only up to flightLists, so a fresh 256x256 engine holds 64 KiB of
// each list, not 512 KiB, and its free list is made as small when the first
// flight comes back (plus at most two pages the runtime allocates for
// itself when a collection starts inside the reading).
func TestFlightListsOnLargeMesh(t *testing.T) {
	e := newEngine(t, []int{256, 256}, 1, nil)
	if cap(e.flights) > flightLists || cap(e.retired) > flightLists {
		t.Errorf("a fresh 256x256 engine starts its flight lists at %d and %d, want at most %d",
			cap(e.flights), cap(e.retired), flightLists)
	}
	if _, err := e.Inject(0, 60000, route.Limited{}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.ClearFlights()
	runtime.ReadMemStats(&after)
	const page = 8192
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*flightLists+2*page); got > limit {
		t.Errorf("the first flight back on 256x256 allocated %d bytes of free list, want at most %d", got, limit)
	}
}
