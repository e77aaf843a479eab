package engine

import (
	"reflect"
	"slices"
	"testing"

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
// each flight's stall age, the residency census and the probe census. The runs cover the commit loop's cases:
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
func TestStepMatchesAdvanceGated(t *testing.T) {
	routers := func() []route.Router {
		return []route.Router{route.Limited{}, route.Congested{}, route.DOR{}, route.Blind{}, &route.Oracle{}}
	}
	for _, tc := range []struct {
		name    string
		dims    []int
		lambda  int
		cfg     ContentionConfig
		rate    float64
		routers int // how many of routers() the flights cycle through
		storm   bool
		probe   bool
		steps   int
	}{
		{"32x32 saturated limited", []int{32, 32}, 1, ContentionConfig{LinkRate: 1}, 0.12, 1, false, false, 160},
		{"8x8 capacity 8 all routers", []int{8, 8}, 1, ContentionConfig{LinkRate: 1, NodeCapacity: 8}, 0.3, 5, false, false, 200},
		{"16x16 lambda 2 storm", []int{16, 16}, 2, ContentionConfig{LinkRate: 1, NodeCapacity: 4, FlightTimeout: 24, GridlockWindow: 8}, 0.05, 1, true, true, 400},
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
				return e, &log, routers()[:tc.routers]
			}
			a, alog, arouters := build()
			b, blog, brouters := build()
			gate := b.gate
			r := rng.New(29)
			n := shape.NumNodes()
			for step := 0; step < tc.steps; step++ {
				for src := grid.NodeID(0); int(src) < n; src++ {
					if !r.Bool(tc.rate) {
						continue
					}
					dst, k := grid.NodeID(r.Intn(n)), r.Intn(tc.routers)
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
				a.DetachDone(nil)
				b.DetachDone(nil)
				a.FlushCensus()
				b.FlushCensus()
				if !reflect.DeepEqual(alog, blog) {
					t.Fatalf("step %d: probe census %+v, reference %+v", step, alog.rows[len(alog.rows)-1], blog.rows[len(blog.rows)-1])
				}
			}
			if tc.storm && len(a.Events) == 0 {
				t.Fatal("the storm applied no event")
			}
		})
	}
}

// sameEngines fails unless a and b hold equal flights in equal order and
// equal residency and gridlock state.
func sameEngines(t *testing.T, step int, a, b *Engine) {
	t.Helper()
	if a.live != b.live || len(a.flights) != len(b.flights) {
		t.Fatalf("step %d: %d live of %d flights, reference %d of %d", step, a.live, len(a.flights), b.live, len(b.flights))
	}
	for i, fa := range a.flights {
		fb := b.flights[i]
		if fa.Router.Name() != fb.Router.Name() || fa.StartStep != fb.StartStep || fa.StallAge != fb.StallAge ||
			!reflect.DeepEqual(fa.msg, fb.msg) {
			t.Fatalf("step %d: flight %d (%s) is %v stall age %d, reference %v stall age %d",
				step, i, fa.Router.Name(), fa.Msg, fa.StallAge, fb.Msg, fb.StallAge)
		}
	}
	if !slices.Equal(a.ResidencyCensus(), b.ResidencyCensus()) {
		t.Fatalf("step %d: residency census differs", step)
	}
	if a.Gridlocked() != b.Gridlocked() || a.GridlockStep() != b.GridlockStep() || a.GridlockRecovery() != b.GridlockRecovery() {
		t.Fatalf("step %d: gridlock state differs", step)
	}
}
