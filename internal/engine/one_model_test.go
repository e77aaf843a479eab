package engine

import (
	"slices"
	"testing"

	"ndmesh/internal/core"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
)

// TestOneStepModel pins that contention is a configuration of the engine's
// one step model, not a mode. An engine runs free as New builds it, then
// under a contention configuration, then free again through
// DisableContention, with flights attached across each switch (terminated
// ones too: the harvest runs every other step). After every step the
// residency census equals a recount of the attached flights by position;
// under the free configuration no link stalls and the gridlock detector
// reads 0; and a probe counts every step, free ones included.
func TestOneStepModel(t *testing.T) {
	shape := meshtest.MustShape(6, 6)
	e := New(core.New(mesh.New(shape)), 1, nil)
	log := &censusLog{}
	e.SetProbe(log)
	routers := []route.Router{route.Limited{}, route.Congested{}, route.DOR{}}
	r := rng.New(11)
	n := shape.NumNodes()
	latched := false
	for _, ph := range []struct {
		name  string
		set   func(*Engine) // nil: the configuration New installs
		free  bool
		steps int
	}{
		{"free as built", nil, true, 30},
		{"contention", func(e *Engine) {
			e.EnableContention(ContentionConfig{LinkRate: 1, NodeCapacity: 1, GridlockWindow: 4})
		}, false, 60},
		{"free again", (*Engine).DisableContention, true, 30},
	} {
		if ph.set != nil {
			if len(e.Flights()) == 0 {
				t.Fatalf("%s: no flight attached across the switch", ph.name)
			}
			ph.set(e)
		}
		if e.ContentionEnabled() == ph.free {
			t.Fatalf("%s: ContentionEnabled = %v", ph.name, e.ContentionEnabled())
		}
		for range ph.steps {
			for range 4 {
				src, dst := grid.NodeID(r.Intn(n)), grid.NodeID(r.Intn(n))
				if src == dst || !e.Admit(src) {
					continue
				}
				if _, err := e.Inject(src, dst, routers[r.Intn(len(routers))]); err != nil {
					t.Fatal(err)
				}
			}
			e.Step()
			if e.StepCount()%2 == 0 {
				e.DetachDone(nil)
			}
			e.FlushCensus()
			step := e.StepCount()
			recount := make([]int, n)
			for _, f := range e.Flights() {
				recount[f.Msg.Cur]++
			}
			if got := e.ResidencyCensus(); !slices.Equal(got, recount) {
				t.Fatalf("%s, step %d: residency census %v, attached flights by position %v", ph.name, step, got, recount)
			}
			latched = latched || e.Gridlocked()
			if !ph.free {
				continue
			}
			for id := range grid.NodeID(n) {
				for d := range grid.Dir(shape.NumDirs()) {
					if p := e.LinkPending(id, d); p != 0 {
						t.Fatalf("%s, step %d: LinkPending(%d, %d) = %d under the free configuration", ph.name, step, id, d, p)
					}
				}
			}
			if e.Gridlocked() || e.GridlockStep() != 0 {
				t.Fatalf("%s, step %d: gridlocked %v at step %d under the free configuration", ph.name, step, e.Gridlocked(), e.GridlockStep())
			}
		}
	}
	if !latched {
		t.Fatal("the contention phase never latched the detector; the free phase after it checks nothing")
	}
	steps := 0
	for i, row := range log.rows {
		if row.Step != i+1 || row.Steps != 1 {
			t.Fatalf("census %d covers steps up to %d (%d of them), want step %d alone", i, row.Step, row.Steps, i+1)
		}
		steps += row.Steps
	}
	if steps != e.StepCount() {
		t.Fatalf("the probe counted %d steps of %d", steps, e.StepCount())
	}
}
