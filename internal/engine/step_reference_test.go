package engine

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"ndmesh/internal/core"
	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
)

// referenceStep is Step with its commit loop written the plain way: one
// route.AdvanceGated call per live flight, through the gate as a func
// value, each call reading the (mesh, store) key and the router's
// load-obliviousness for itself. Everything around the loop is Step's.
func (e *Engine) referenceStep(gate route.Gate) {
	for e.evIdx < len(e.Schedule.Events) && e.Schedule.Events[e.evIdx].Step <= e.step {
		e.applyEvent(e.Schedule.Events[e.evIdx])
		e.evIdx++
	}
	for i := 0; i < e.Lambda; i++ {
		e.Model.Round()
		e.RoundsRun++
	}
	c := &e.ctn
	for _, li := range c.dirty {
		c.served[li] = 0
	}
	c.dirty = c.dirty[:0]
	for _, li := range c.lastDty {
		c.lastPending[li] = 0
	}
	c.lastPending, c.pending = c.pending, c.lastPending
	c.lastDty, c.pendingDty = c.pendingDty, c.lastDty[:0]
	timeout := c.cfg.FlightTimeout
	probed := e.probe != nil
	progressed, w := 0, 0
	var retired []*Flight
	for _, f := range e.flights[:e.live] {
		msg := &f.msg
		before := msg.Cur
		if timeout > 0 && f.StallAge >= timeout {
			msg.TimedOut = true
		} else {
			route.AdvanceGated(&e.ctx, f.Router, msg, gate)
		}
		moved, done := msg.Cur != before, msg.Done()
		switch {
		case moved:
			c.resident[before]--
			c.resident[msg.Cur]++
			f.StallAge = 0
		case !done:
			f.StallAge++
		}
		if moved || done {
			progressed++
		}
		if probed {
			e.census.observe(msg, moved)
		}
		if done {
			retired = append(retired, f)
		} else {
			e.flights[w] = f
			w++
		}
	}
	copy(e.flights[w:], retired)
	e.live = w
	if c.cfg.GridlockWindow > 0 {
		if w > 0 && progressed == 0 {
			c.zeroStreak++
			if !c.gridlocked && c.zeroStreak >= c.cfg.GridlockWindow {
				c.gridlocked = true
				if c.gridlockAt < 0 {
					c.gridlockAt = e.step
				}
			}
		} else {
			c.zeroStreak = 0
			if c.gridlocked {
				c.gridlocked = false
				if c.recoverAt < 0 {
					c.recoverAt = e.step
				}
			}
		}
	}
	if probed {
		e.census.Steps++
		e.census.InFlight = w
		e.census.Gridlocked = c.gridlocked
	}
	e.step++
}

// TestStepMatchesAdvanceGated runs Step beside referenceStep on identical
// engines fed identical traffic and holds them equal after every step:
// every header (path stack, table, kept decision and its key included),
// each flight's stall age, the residency census, the stall counters and
// the probe census. The runs cover the commit loop's cases:
//
//   - a saturated fault-free 32x32 under limited, where two flight-steps in
//     five stall and a stalled flight keeps its decision;
//   - an 8x8 with capacity-8 buffers and all five routers, so congested
//     re-decides after every stall, dor fails, blind backtracks and the
//     oracle keeps a table;
//   - a 16x16 λ=2 Bernoulli fail/repair storm with timeouts, a gridlock
//     window and a probe, where faults and record changes land during the
//     λ rounds while flights are stalled — the key must be taken after
//     them, and a kept decision must still ask the gate.
//
// The rest wedge an 8x8, so that Step replays frozen prefixes (each of
// these runs must), one case per replay condition. The unscripted ones run
// capacity-4 buffers at rate 0.5; where they mix routers, they run the
// four load-oblivious ones, so a frozen population can replay.
//
//   - limited alone: an oblivious prefix with newcomers polled behind it;
//   - the four oblivious routers with a probe: ClearFlights at step 150
//     and deeper buffers from step 225;
//   - a flight timeout and a gridlock window with a probe: a timeout inside
//     a frozen streak;
//   - a harvest every third step (see harvestScript): a deferred harvest
//     empties a full node between frozen steps;
//   - a fault applied to the model between steps, no schedule event: only
//     the key changes;
//   - a scripted wedge (see newcomerScript): a congested newcomer beside a
//     frozen congested flight, whose lightest choice flips once it stalls;
//     a population holding a congested flight is polled every step.
func TestStepMatchesAdvanceGated(t *testing.T) {
	all := []string{"limited", "congested", "dor", "blind", "oracle"}
	oblivious := []string{"limited", "dor", "blind", "oracle"}
	wedge := ContentionConfig{LinkRate: 1, NodeCapacity: 4}
	for _, tc := range []struct {
		name    string
		dims    []int
		lambda  int
		cfg     ContentionConfig
		rate    float64
		routers []string // the flights cycle through these
		storm   bool
		probe   bool
		steps   int
		// harvest is the DetachDone period in steps (0: every step);
		// between, when set, runs on both engines before each step's
		// injections; script, when set, replaces the random traffic.
		harvest int
		between func(step int, e *Engine)
		script  func(step int, inject func(src, dst grid.Coord, router int))
		wedged  bool // Step must replay
		polls   bool // Step must replay nothing
	}{
		{name: "32x32 saturated limited", dims: []int{32, 32}, lambda: 1, cfg: ContentionConfig{LinkRate: 1},
			rate: 0.12, routers: all[:1], steps: 160},
		{name: "8x8 capacity 8 all routers", dims: []int{8, 8}, lambda: 1, cfg: ContentionConfig{LinkRate: 1, NodeCapacity: 8},
			rate: 0.3, routers: all, steps: 200},
		{name: "16x16 lambda 2 storm", dims: []int{16, 16}, lambda: 2,
			cfg:  ContentionConfig{LinkRate: 1, NodeCapacity: 4, FlightTimeout: 24, GridlockWindow: 8},
			rate: 0.05, routers: all[:1], storm: true, probe: true, steps: 400},
		{name: "wedge limited", dims: []int{8, 8}, lambda: 1, cfg: wedge,
			rate: 0.5, routers: all[:1], steps: 200, wedged: true},
		{name: "wedge oblivious routers", dims: []int{8, 8}, lambda: 1, cfg: wedge,
			rate: 0.5, routers: oblivious, probe: true, steps: 300, wedged: true,
			between: func(step int, e *Engine) {
				switch step {
				case 150:
					e.ClearFlights()
				case 225:
					e.EnableContention(ContentionConfig{LinkRate: 1, NodeCapacity: 6})
				}
			}},
		{name: "wedge timeout", dims: []int{8, 8}, lambda: 1,
			cfg:  ContentionConfig{LinkRate: 1, NodeCapacity: 4, FlightTimeout: 40, GridlockWindow: 4},
			rate: 0.5, routers: oblivious, probe: true, steps: 300, wedged: true},
		{name: "wedge late harvest", dims: []int{8, 8}, lambda: 1, cfg: ContentionConfig{LinkRate: 1, NodeCapacity: 1},
			routers: all[:1], steps: 12, harvest: 3, wedged: true, script: harvestScript},
		{name: "wedge test-side faults", dims: []int{8, 8}, lambda: 1, cfg: wedge,
			rate: 0.5, routers: oblivious, steps: 300, wedged: true,
			between: func(step int, e *Engine) {
				if step%20 == 10 {
					e.Model.ApplyFault(grid.NodeID(step % 64))
				}
			}},
		{name: "wedge congested newcomer", dims: []int{8, 8}, lambda: 1, cfg: ContentionConfig{LinkRate: 1, NodeCapacity: 2},
			routers: all[:2], steps: 30, polls: true, script: newcomerScript},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shape, err := grid.NewShape(tc.dims...)
			if err != nil {
				t.Fatal(err)
			}
			sched := &fault.Schedule{}
			if tc.storm {
				sched, err = fault.GenerateProcess(shape, fault.ProcessOptions{
					Arrival: fault.Delay{Model: fault.DelayBernoulli, Rate: 0.2},
					Repair:  fault.Delay{Model: fault.DelayBernoulli, Rate: 1.0 / 24},
					Horizon: tc.steps - 1,
				}, rng.New(3))
				if err != nil {
					t.Fatal(err)
				}
			}
			build := func() (*Engine, *censusLog, []route.Router) {
				e := New(core.New(mesh.New(shape)), tc.lambda, sched)
				e.EnableContention(tc.cfg)
				var log censusLog
				if tc.probe {
					e.SetProbe(&log)
				}
				routers := make([]route.Router, len(tc.routers))
				for i, name := range tc.routers {
					if routers[i], err = route.ByName(name); err != nil {
						t.Fatal(err)
					}
				}
				return e, &log, routers
			}
			a, alog, arouters := build()
			b, blog, brouters := build()
			gate := b.gate
			r := rng.New(29)
			n := shape.NumNodes()
			held := 0 // census rows already held equal
			for step := 0; step < tc.steps; step++ {
				if tc.between != nil {
					tc.between(step, a)
					tc.between(step, b)
				}
				if tc.script != nil {
					tc.script(step, func(src, dst grid.Coord, k int) {
						if _, err := a.Inject(shape.Index(src), shape.Index(dst), arouters[k]); err != nil {
							t.Fatal(err)
						}
						if _, err := b.Inject(shape.Index(src), shape.Index(dst), brouters[k]); err != nil {
							t.Fatal(err)
						}
					})
				}
				for src := grid.NodeID(0); int(src) < n && tc.script == nil; src++ {
					if !r.Bool(tc.rate) {
						continue
					}
					dst, k := grid.NodeID(r.Intn(n)), r.Intn(len(tc.routers))
					if dst == src || a.Model.M.Status(src) != mesh.Enabled {
						continue
					}
					if a.Admit(src) != b.Admit(src) {
						t.Fatalf("step %d: Admit(%d) differs", step, src)
					}
					if !a.Admit(src) {
						continue
					}
					if _, err := a.Inject(src, dst, arouters[k]); err != nil {
						t.Fatal(err)
					}
					if _, err := b.Inject(src, dst, brouters[k]); err != nil {
						t.Fatal(err)
					}
				}
				a.Step()
				b.referenceStep(gate)
				sameEngines(t, step, a, b)
				if tc.harvest == 0 || step%tc.harvest == 0 {
					a.DetachDone(nil)
					b.DetachDone(nil)
				}
				a.FlushCensus()
				b.FlushCensus()
				sameCensus(t, step, alog, blog, &held)
			}
			if tc.storm && len(a.Events) == 0 {
				t.Fatal("the storm applied no event")
			}
			if tc.wedged && a.replayed == 0 {
				t.Fatalf("no flight-step replayed (%d polled)", a.polled)
			}
			if tc.polls && a.replayed != 0 {
				t.Fatalf("%d flight-steps replayed with a congested flight in every frozen step", a.replayed)
			}
			t.Logf("%d flight-steps polled, %d replayed", a.polled, a.replayed)
		})
	}
}

// harvestScript injects, on a mesh with capacity-1 buffers, two flights at
// step 1 bound for (2,1): one from (1,1), which arrives there at once, and
// one from (3,1), denied while the arrived flight holds the slot. Steps 2
// and 3 freeze; the harvest after step 3 empties (2,1), so step 4 must
// poll the waiting flight, which arrives.
func harvestScript(step int, inject func(src, dst grid.Coord, router int)) {
	if step == 1 {
		inject(grid.Coord{1, 1}, grid.Coord{2, 1}, 0)
		inject(grid.Coord{3, 1}, grid.Coord{2, 1}, 0)
	}
}

// newcomerScript builds, on an 8x8 with capacity-2 buffers, a wedge that
// freezes at its first step: a cycle of full nodes (1,1) -> (2,1) -> (2,2)
// -> (1,2) -> (1,1), nodes (3,2) and (4,1) full of flights waiting on it,
// and at (3,1) a limited flight waiting on (3,2) beside a congested one
// bound for (1,2). The congested flight weighs (2,1) against (3,2): both
// full, both links denied once a step, so it keeps its first pick. At step
// 10 a congested newcomer at (4,2) bound for (2,1) weighs (3,2) against
// (4,1): its first, fresh decision takes (3,2); stalled, its own denial
// makes (4,1) the lighter, and it flips every step after. With every
// flight limited, the same script is a load-oblivious wedge
// (scriptedWedge).
func newcomerScript(step int, inject func(src, dst grid.Coord, router int)) {
	const limited, congested = 0, 1
	switch step {
	case 0:
		for _, hop := range [][2]grid.Coord{
			{{1, 1}, {2, 1}}, {{2, 1}, {2, 2}}, {{2, 2}, {1, 2}}, {{1, 2}, {1, 1}},
			{{3, 2}, {2, 2}}, {{4, 1}, {3, 1}},
		} {
			inject(hop[0], hop[1], limited)
			inject(hop[0], hop[1], limited)
		}
		inject(grid.Coord{3, 1}, grid.Coord{3, 2}, limited)
		inject(grid.Coord{3, 1}, grid.Coord{1, 2}, congested)
	case 10:
		inject(grid.Coord{4, 2}, grid.Coord{2, 1}, congested)
	}
}

// sameEngines fails unless a and b hold equal flights in equal order and
// equal residency, stall counters and gridlock state.
func sameEngines(t *testing.T, step int, a, b *Engine) {
	t.Helper()
	if a.live != b.live || len(a.flights) != len(b.flights) {
		t.Fatalf("step %d: %d live of %d flights, reference %d of %d", step, a.live, len(a.flights), b.live, len(b.flights))
	}
	// A header's tables field points at its engine's whole route.Tables:
	// the headers are compared with it left out, each must point at its own
	// engine's, and the two engines' Tables are compared once.
	for i, fa := range a.flights {
		fb := b.flights[i]
		ma, mb := fa.msg, fb.msg
		ta, tb := tablesOf(&ma), tablesOf(&mb)
		if *ta != nil && *ta != &a.tables || *tb != nil && *tb != &b.tables {
			t.Fatalf("step %d: flight %d's header borrows from another engine's tables", step, i)
		}
		if (*ta == nil) != (*tb == nil) {
			t.Fatalf("step %d: flight %d's header has tables %v, reference %v", step, i, *ta != nil, *tb != nil)
		}
		*ta, *tb = nil, nil
		if fa.Router.Name() != fb.Router.Name() || fa.StartStep != fb.StartStep || fa.StallAge != fb.StallAge ||
			!reflect.DeepEqual(ma, mb) {
			t.Fatalf("step %d: flight %d (%s) is %v stall age %d, reference %v stall age %d",
				step, i, fa.Router.Name(), fa.Msg, fa.StallAge, fb.Msg, fb.StallAge)
		}
	}
	if !reflect.DeepEqual(a.tables, b.tables) {
		t.Fatalf("step %d: header tables differ", step)
	}
	if !slices.Equal(a.ResidencyCensus(), b.ResidencyCensus()) {
		t.Fatalf("step %d: residency census differs", step)
	}
	// LinkPending (lastPending) is what congested reads next step.
	ac, bc := &a.ctn, &b.ctn
	if !slices.Equal(ac.pending, bc.pending) || !slices.Equal(ac.lastPending, bc.lastPending) {
		t.Fatalf("step %d: stall counters differ", step)
	}
	if !sameSet(ac.pendingDty, bc.pendingDty) {
		t.Fatalf("step %d: stalled links %v, reference %v", step, ac.pendingDty, bc.pendingDty)
	}
	if a.Gridlocked() != b.Gridlocked() || a.GridlockStep() != b.GridlockStep() || a.GridlockRecovery() != b.GridlockRecovery() {
		t.Fatalf("step %d: gridlock state differs", step)
	}
}

// tablesOf returns the address of msg's tables field (route's, unexported):
// the engine's route.Tables the header borrows from, or nil.
func tablesOf(msg *route.Message) **route.Tables {
	f := reflect.ValueOf(msg).Elem().FieldByName("tables")
	return (**route.Tables)(unsafe.Pointer(f.UnsafeAddr()))
}

// sameCensus fails unless the two probe logs are equal. The logs are
// append-only and their first *held rows were already held equal, so only
// the rows flushed since are compared; held then covers every row.
func sameCensus(t *testing.T, step int, a, b *censusLog, held *int) {
	t.Helper()
	if len(a.rows) != len(b.rows) || len(a.resident) != len(b.resident) || len(a.stalls) != len(b.stalls) {
		t.Fatalf("step %d: probe census has %d rows, reference %d", step, len(a.rows), len(b.rows))
	}
	from := *held
	if !reflect.DeepEqual(a.rows[from:], b.rows[from:]) || !reflect.DeepEqual(a.resident[from:], b.resident[from:]) ||
		!reflect.DeepEqual(a.stalls[from:], b.stalls[from:]) {
		t.Fatalf("step %d: probe census %+v, reference %+v", step, a.rows[len(a.rows)-1], b.rows[len(b.rows)-1])
	}
	*held = len(a.rows)
}

// sameSet reports whether a and b hold the same elements, each once.
func sameSet(a, b []int32) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b) && len(slices.Compact(a)) == len(b)
}
