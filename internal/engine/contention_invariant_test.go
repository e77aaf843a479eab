package engine

import (
	"fmt"
	"testing"

	"ndmesh/internal/core"
	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
)

// TestContentionConservation is the conservation law of the contention
// model, checked every step over randomized schedules (random shapes,
// routers, capacities, injection bursts and dynamic fault overlays):
//
//   - flights partition exactly: injected == delivered + unreachable +
//     lost + timed-out + in-flight, at every step;
//   - the per-node residency counters sum to the number of live
//     (not-yet-detached, not-yet-done) flights, and every per-node count
//     matches a direct census of flight positions.
//
// A third of the trials enable the deadlock-escape configuration (flight
// timeouts, gridlock detection, bubble admission) so timed-out kills are
// exercised against the same invariants. CI runs the package under -race,
// so the test also certifies the counter bookkeeping involves no hidden
// shared state.
func TestContentionConservation(t *testing.T) {
	for trial := 0; trial < 24; trial++ {
		trial := trial
		t.Run(fmt.Sprint("trial", trial), func(t *testing.T) {
			r := rng.New(uint64(1000 + trial))
			dims := make([]int, 1+r.Intn(2))
			for i := range dims {
				dims[i] = 4 + r.Intn(5)
			}
			shape, err := grid.NewShape(dims...)
			if err != nil {
				t.Fatal(err)
			}
			m := mesh.New(shape)
			md := core.New(m)

			// Half the trials overlay a dynamic fault schedule.
			sched := &fault.Schedule{}
			if trial%2 == 0 && shape.NumNodes() >= 25 {
				if s, err := fault.Generate(shape, 2, fault.Options{Interval: 8, Start: 4}, r); err == nil {
					sched = s
				}
			}
			cfg := ContentionConfig{
				LinkRate:     1 + r.Intn(2),
				NodeCapacity: r.Intn(3) * 4, // 0 (unbounded), 4 or 8
			}
			if trial%3 == 0 {
				// Escape-mechanism trials: tight buffers so stalls (and under
				// bad luck genuine cycles) occur, a short timeout so kills
				// actually fire, detection enabled, bubble on finite buffers.
				cfg.NodeCapacity = 2 + r.Intn(3)
				cfg.FlightTimeout = 3 + r.Intn(4)
				cfg.GridlockWindow = 2
				cfg.Bubble = r.Bool(0.5)
			}
			e := New(md, 1, sched)
			e.EnableContention(cfg)

			routers := []route.Router{route.Limited{}, route.Congested{}, route.Blind{}}
			var injected, delivered, unreachable, lost, timedOut int
			audit := func(step int) {
				t.Helper()
				live := 0
				census := make(map[grid.NodeID]int)
				for _, f := range e.Flights() {
					if !f.Msg.Done() {
						live++
					}
					census[f.Msg.Cur]++
				}
				if got := injected - delivered - unreachable - lost - timedOut - live; got != 0 {
					t.Fatalf("step %d: conservation broken: injected %d != delivered %d + unreachable %d + lost %d + timed-out %d + in-flight %d",
						step, injected, delivered, unreachable, lost, timedOut, live)
				}
				sum := 0
				for id := 0; id < shape.NumNodes(); id++ {
					res := e.Resident(grid.NodeID(id))
					if res != census[grid.NodeID(id)] {
						t.Fatalf("step %d: node %d residency %d, census %d", step, id, res, census[grid.NodeID(id)])
					}
					sum += res
				}
				// Done flights are detached (and their residency released)
				// every step, so the counters must sum to the live count.
				if sum != live {
					t.Fatalf("step %d: residency sum %d != live flights %d", step, sum, live)
				}
			}

			// Escape trials funnel everything into one hotspot: the
			// congestion tree around it is what stalls flights past the
			// timeout, so the TimedOut branch of the partition is exercised.
			hot := grid.NodeID(shape.NumNodes() - 1)
			for step := 0; step < 60; step++ {
				// A burst of injections at enabled, admitted sources.
				for k := r.Intn(6); k > 0; k-- {
					src := grid.NodeID(r.Intn(shape.NumNodes()))
					dst := grid.NodeID(r.Intn(shape.NumNodes()))
					if cfg.FlightTimeout > 0 {
						dst = hot
					}
					if src == dst || m.Status(src) != mesh.Enabled || !e.Admit(src) {
						continue
					}
					if _, err := e.Inject(src, dst, routers[r.Intn(len(routers))]); err != nil {
						t.Fatal(err)
					}
					injected++
				}
				e.Step()
				e.DetachDone(func(f *Flight) {
					switch {
					case f.Msg.Arrived:
						delivered++
					case f.Msg.Unreachable:
						unreachable++
					case f.Msg.Lost:
						lost++
					case f.Msg.TimedOut:
						timedOut++
					default:
						t.Fatalf("detached flight not terminal: %v", f.Msg)
					}
				})
				audit(step)
			}
			if cfg.FlightTimeout > 0 {
				t.Logf("escape trial (cap=%d timeout=%d bubble=%v): %d timed-out kills",
					cfg.NodeCapacity, cfg.FlightTimeout, cfg.Bubble, timedOut)
			}
		})
	}
}

// TestFailRepairOccupiedConservation is the fail-mid-flight audit: a
// schedule that fails AND repairs a node while flights are resident on it
// (and queued through it) must leave the conservation partition and the
// residency census intact at every step — no buffer slot, residency count
// or stall counter may leak across the fault or the repair. The funnel
// pattern keeps the victim node's input queue full at both event steps,
// and the cycle repeats so re-failure of a repaired, re-occupied node is
// covered too.
func TestFailRepairOccupiedConservation(t *testing.T) {
	shape, err := grid.NewShape(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := mesh.New(shape)
	md := core.New(m)
	victim := shape.Index(grid.Coord{4, 4})
	sched := &fault.Schedule{Events: []fault.Event{
		{Step: 6, Node: victim, Kind: fault.Fail},
		{Step: 16, Node: victim, Kind: fault.Recover},
		{Step: 26, Node: victim, Kind: fault.Fail},
		{Step: 36, Node: victim, Kind: fault.Recover},
	}}
	cfg := ContentionConfig{LinkRate: 1, NodeCapacity: 2, FlightTimeout: 8, GridlockWindow: 4}
	e := New(md, 1, sched)
	e.EnableContention(cfg)

	routers := []route.Router{route.Limited{}, route.Congested{}}
	// Cross traffic through the victim from all four sides keeps flights
	// resident on it (and stalled against it) when the events land.
	srcs := []grid.Coord{{1, 4}, {7, 4}, {4, 1}, {4, 7}}
	dsts := []grid.Coord{{7, 4}, {1, 4}, {4, 7}, {4, 1}}
	var injected, delivered, unreachable, lost, timedOut int
	sawResidentFail, sawResidentRecover := false, false
	for step := 0; step < 50; step++ {
		for i := range srcs {
			src := shape.Index(srcs[i])
			if m.Status(src) != mesh.Enabled || !e.Admit(src) {
				continue
			}
			if _, err := e.Inject(src, shape.Index(dsts[i]), routers[step%len(routers)]); err != nil {
				t.Fatal(err)
			}
			injected++
		}
		// The events land at the START of Step; note the occupancy going in,
		// so the test proves it audited the interesting case rather than an
		// empty mesh. A Fail must catch flights resident ON the victim; a
		// Recover cannot (nothing routes into a faulty node, and whatever the
		// Fail caught backtracks out or is lost), so there the interesting
		// case is flights resident AGAINST it — parked on its neighbors,
		// stalled by the detour pressure, re-eligible to route through the
		// victim the moment it heals.
		occupied := e.Resident(victim) > 0
		beside := false
		for d := 0; d < shape.NumDirs() && !beside; d++ {
			if nb := shape.Neighbor(victim, grid.Dir(d)); nb != grid.InvalidNode && e.Resident(nb) > 0 {
				beside = true
			}
		}
		e.Step()
		e.DetachDone(func(f *Flight) {
			switch {
			case f.Msg.Arrived:
				delivered++
			case f.Msg.Unreachable:
				unreachable++
			case f.Msg.Lost:
				lost++
			case f.Msg.TimedOut:
				timedOut++
			default:
				t.Fatalf("detached flight not terminal: %v", f.Msg)
			}
		})
		switch {
		case (step+1 == 6 || step+1 == 26) && occupied:
			sawResidentFail = true
		case (step+1 == 16 || step+1 == 36) && beside:
			sawResidentRecover = true
		}
		live := 0
		census := make(map[grid.NodeID]int)
		for _, f := range e.Flights() {
			if !f.Msg.Done() {
				live++
			}
			census[f.Msg.Cur]++
		}
		if got := injected - delivered - unreachable - lost - timedOut - live; got != 0 {
			t.Fatalf("step %d: conservation broken: injected %d != delivered %d + unreachable %d + lost %d + timed-out %d + in-flight %d",
				step, injected, delivered, unreachable, lost, timedOut, live)
		}
		sum := 0
		for id := 0; id < shape.NumNodes(); id++ {
			res := e.Resident(grid.NodeID(id))
			if res != census[grid.NodeID(id)] {
				t.Fatalf("step %d: node %d residency %d, census %d", step, id, res, census[grid.NodeID(id)])
			}
			sum += res
		}
		if sum != live {
			t.Fatalf("step %d: residency sum %d != live flights %d", step, sum, live)
		}
	}
	if !sawResidentFail {
		t.Error("no Fail event landed on an occupied node; the scenario lost its teeth")
	}
	if !sawResidentRecover {
		t.Error("no Recover event landed on an occupied node; the scenario lost its teeth")
	}
	if delivered == 0 {
		t.Error("nothing delivered across the fail/repair cycles")
	}
}

// TestCongestedStepAllocFree extends the steady-state allocation guarantee
// to the congestion-aware path: a contention step driving congested-router
// flights — LoadView queries, stall-gated deviation, the pending-counter
// rotation — performs zero allocations once warm.
func TestCongestedStepAllocFree(t *testing.T) {
	e, shape := newContentionEngine(t, 16, ContentionConfig{LinkRate: 1, NodeCapacity: 4})
	srcs := []grid.Coord{{1, 1}, {1, 2}, {2, 1}, {14, 14}, {13, 14}, {14, 13}}
	dsts := []grid.Coord{{14, 14}, {14, 13}, {13, 14}, {1, 1}, {2, 1}, {1, 2}}
	inject := func() {
		// Crossing bursts from opposite corners guarantee link contention,
		// stalls, and therefore the adaptive branch.
		for i := range srcs {
			if _, err := e.Inject(shape.Index(srcs[i]), shape.Index(dsts[i]), route.Congested{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	inject()
	for i := 0; i < 200; i++ {
		e.Step()
		e.DetachDone(nil)
		if len(e.Flights()) == 0 {
			inject()
		}
	}
	allocs := testing.AllocsPerRun(300, func() {
		e.Step()
		e.DetachDone(nil)
		if len(e.Flights()) == 0 {
			inject()
		}
	})
	if allocs != 0 {
		t.Fatalf("congested contention step allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestFaultProcessStepAllocFree extends the steady-state allocation
// guarantee to the fault-process-enabled contention step — the regime every
// E23 Monte-Carlo trial runs in. One op is a full trial cycle on a pooled
// engine: model reset, engine reset (the schedule cursor rewinds and the
// event log is truncated in place), then the whole stochastic fail/repair
// schedule replayed against crossing traffic with timeouts live. After the
// warm cycles, nothing on that path may allocate: labeling recompute
// buffers, the event log and the contention counters must all reuse their
// capacity.
func TestFaultProcessStepAllocFree(t *testing.T) {
	shape, err := grid.NewShape(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	m := mesh.New(shape)
	md := core.New(m)
	const horizon = 64
	sched, err := fault.GenerateProcess(shape, fault.ProcessOptions{
		Arrival: fault.Delay{Model: fault.DelayBernoulli, Rate: 0.08},
		Repair:  fault.Delay{Model: fault.DelayBernoulli, Rate: 1.0 / 16},
		Horizon: horizon - 1,
	}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	fails, recovers := 0, 0
	for _, ev := range sched.Events {
		switch ev.Kind {
		case fault.Fail:
			fails++
		case fault.Recover:
			recovers++
		}
	}
	if fails == 0 || recovers == 0 {
		t.Fatalf("process drew %d fails / %d recovers; both kinds must exercise the step", fails, recovers)
	}
	e := New(md, 1, sched)
	e.EnableContention(ContentionConfig{LinkRate: 1, NodeCapacity: 4, FlightTimeout: 16, GridlockWindow: 8})
	srcs := []grid.Coord{{1, 1}, {1, 2}, {2, 1}, {10, 10}, {9, 10}, {10, 9}}
	dsts := []grid.Coord{{10, 10}, {10, 9}, {9, 10}, {1, 1}, {2, 1}, {1, 2}}
	// The router is built once, as every load generator does: converting a
	// non-empty struct to the Router interface at each Inject would allocate.
	var rtr route.Router = route.Congested{}
	cycle := func() {
		md.Reset()
		e.Reset()
		for step := 0; step < horizon+16; step++ {
			for i := range srcs {
				src := shape.Index(srcs[i])
				if m.Status(src) != mesh.Enabled || !e.Admit(src) {
					continue
				}
				if _, err := e.Inject(src, shape.Index(dsts[i]), rtr); err != nil {
					t.Fatal(err)
				}
			}
			e.Step()
			e.DetachDone(nil)
		}
	}
	cycle()
	if len(e.Events) == 0 {
		t.Fatal("no fault event applied during the cycle; the process is not being measured")
	}
	// Warm until every pooled object (flights, walkers, constructions,
	// watches) has hit its personal high-water mark: recycled flights come
	// off the free list LIFO, so rarely-used ones warm their routing
	// scratch late. Counted exactly, the second cycle allocates twice and
	// every later one nothing; the two below and AllocsPerRun's own warm-up
	// run leave a margin of two.
	for i := 0; i < 2; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(10, cycle)
	if allocs != 0 {
		t.Fatalf("fault-process trial cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestLinkPendingObservesStalls pins the LoadView's link signal: a stall
// on a directed link this step is visible through LinkPending on the next
// step, and gone the step after the queue clears.
func TestLinkPendingObservesStalls(t *testing.T) {
	e, shape := newContentionEngine(t, 8, ContentionConfig{LinkRate: 1})
	src := shape.Index(grid.Coord{3, 3})
	dst := shape.Index(grid.Coord{6, 3})
	// Three DOR flights on the same +X link: step 1 grants one crossing
	// and stalls two.
	for i := 0; i < 3; i++ {
		if _, err := e.Inject(src, dst, route.DOR{}); err != nil {
			t.Fatal(err)
		}
	}
	// The stall counters rotate at the START of each step, so the view
	// available to step N's routing decisions — and to external callers
	// between steps — is the stalls of step N-1. Step 1 stalls two flights;
	// that becomes visible when step 2 begins.
	plusX := grid.DirPlus(0)
	if got := e.LinkPending(src, plusX); got != 0 {
		t.Fatalf("pending before any step: %d", got)
	}
	e.Step() // grants f1, stalls f2 and f3
	if got := e.LinkPending(src, plusX); got != 0 {
		t.Fatalf("pending after step 1: %d, want 0 (not yet rotated in)", got)
	}
	e.Step() // rotation exposes step 1's stalls; grants f2, stalls f3
	if got := e.LinkPending(src, plusX); got != 2 {
		t.Fatalf("pending after step 2: %d, want 2 (step 1's losers)", got)
	}
	e.Step() // exposes step 2's single stall; grants f3
	if got := e.LinkPending(src, plusX); got != 1 {
		t.Fatalf("pending after step 3: %d, want 1", got)
	}
	e.Step() // queue drained: no stalls to expose
	if got := e.LinkPending(src, plusX); got != 0 {
		t.Fatalf("pending after step 4: %d, want 0 (queue drained)", got)
	}
	// Disabling contention zeroes the view.
	e.DisableContention()
	if got := e.LinkPending(src, plusX); got != 0 {
		t.Fatalf("pending with contention disabled: %d", got)
	}
	if got := e.Resident(src); got != 0 {
		t.Fatalf("residency with contention disabled: %d", got)
	}
}
