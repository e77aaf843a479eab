package engine

import (
	"testing"

	"ndmesh/internal/core"
	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/route"
)

// TestSmokeDynamicRouting routes a message across a 2-D mesh while a fault
// burst creates a block directly on its dimension-order path; the limited
// router must still arrive, and with the boundary information in place the
// detour must stay bounded.
func TestSmokeDynamicRouting(t *testing.T) {
	m, err := meshtest.NewUniform(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	shape := m.Shape()
	md := core.New(m)

	// A 2x2 block in the middle of the mesh, created at step 2.
	sched := &fault.Schedule{}
	for _, c := range []grid.Coord{{7, 7}, {8, 7}, {7, 8}, {8, 8}} {
		sched.Events = append(sched.Events, fault.Event{Step: 2, Node: shape.Index(c), Kind: fault.Fail})
	}
	eng := New(md, 4, sched)

	src := shape.Index(grid.Coord{1, 1})
	dst := shape.Index(grid.Coord{14, 14})
	fl, err := eng.Inject(src, dst, route.Limited{})
	if err != nil {
		t.Fatal(err)
	}
	steps := eng.Run(1000, eng.Idle)
	t.Logf("finished in %d steps: %v", steps, fl.Msg)
	if !fl.Msg.Arrived {
		t.Fatalf("message did not arrive: %v", fl.Msg)
	}
	d0 := shape.Distance(src, dst)
	if fl.Msg.Hops > d0+12 {
		t.Fatalf("excessive detours: hops=%d, D=%d", fl.Msg.Hops, d0)
	}

	// Same scenario with the blind router must also arrive (fault
	// tolerance does not depend on information), possibly with more hops.
	m2, _ := meshtest.NewUniform(2, 16)
	md2 := core.New(m2)
	sched2 := &fault.Schedule{}
	for _, c := range []grid.Coord{{7, 7}, {8, 7}, {7, 8}, {8, 8}} {
		sched2.Events = append(sched2.Events, fault.Event{Step: 2, Node: shape.Index(c), Kind: fault.Fail})
	}
	eng2 := New(md2, 4, sched2)
	fl2, err := eng2.Inject(src, dst, route.Blind{})
	if err != nil {
		t.Fatal(err)
	}
	eng2.Run(1000, eng2.Idle)
	if !fl2.Msg.Arrived {
		t.Fatalf("blind message did not arrive: %v", fl2.Msg)
	}
	t.Logf("blind: %v", fl2.Msg)

	// Oracle router for reference.
	m3, _ := meshtest.NewUniform(2, 16)
	md3 := core.New(m3)
	sched3 := &fault.Schedule{}
	for _, c := range []grid.Coord{{7, 7}, {8, 7}, {7, 8}, {8, 8}} {
		sched3.Events = append(sched3.Events, fault.Event{Step: 2, Node: shape.Index(c), Kind: fault.Fail})
	}
	eng3 := New(md3, 4, sched3)
	fl3, err := eng3.Inject(src, dst, &route.Oracle{})
	if err != nil {
		t.Fatal(err)
	}
	eng3.Run(1000, eng3.Idle)
	if !fl3.Msg.Arrived {
		t.Fatalf("oracle message did not arrive: %v", fl3.Msg)
	}
	t.Logf("oracle: %v", fl3.Msg)
	if fl.Msg.Hops < fl3.Msg.Hops {
		t.Fatalf("limited (%d hops) beat oracle (%d hops): oracle must be optimal", fl.Msg.Hops, fl3.Msg.Hops)
	}
}
