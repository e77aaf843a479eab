package engine

import (
	"testing"

	"ndmesh/internal/core"
	"ndmesh/internal/grid"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/route"
)

// buildShadowScenario creates a 16x16 mesh with a wide block [4:11, 7:8]
// already stabilized, and returns the model. The source (7,1) routes to
// (7,14): straight up, directly through the block's shadow.
func buildShadowScenario(t *testing.T) (*core.Model, grid.NodeID, grid.NodeID) {
	t.Helper()
	m, err := meshtest.NewUniform(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	shape := m.Shape()
	md := core.New(m)
	for x := 4; x <= 11; x++ {
		for y := 7; y <= 8; y++ {
			md.ApplyFault(shape.Index(grid.Coord{x, y}))
		}
	}
	md.Stabilize()
	if !md.Quiescent() {
		t.Fatal("model not quiescent after stabilize")
	}
	return md, shape.Index(grid.Coord{7, 1}), shape.Index(grid.Coord{14, 7})
}

// TestShadowAvoidance checks the essence of the information model: with
// boundary information a message destined beyond the block never enters the
// dangerous area (no backtracking, minimal + bounded detour), while the
// blind router walks in and pays with backtracks.
func TestShadowAvoidance(t *testing.T) {
	// Destination straight across the block: src (7,1) -> dst (7,14).
	md, src, _ := buildShadowScenario(t)
	shape := md.M.Shape()
	dst := shape.Index(grid.Coord{7, 14})
	d0 := shape.Distance(src, dst)

	eng := New(md, 4, nil)
	fl, err := eng.Inject(src, dst, route.Limited{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(500, eng.Idle)
	if !fl.Msg.Arrived {
		t.Fatalf("limited did not arrive: %v", fl.Msg)
	}
	t.Logf("limited: %v (D=%d)", fl.Msg, d0)
	if fl.Msg.Backtracks != 0 {
		t.Errorf("limited router backtracked %d times despite boundary info", fl.Msg.Backtracks)
	}
	// The block spans x 4..11; source at x=7 must slide to x=3 or x=12 and
	// around: detour = 2*min(7-3, 12-7) = 8 extra hops at most.
	if fl.Msg.Hops > d0+10 {
		t.Errorf("limited detour too large: hops=%d, D=%d", fl.Msg.Hops, d0)
	}

	// Blind router on an identical fabric.
	md2, src2, _ := buildShadowScenario(t)
	dst2 := md2.M.Shape().Index(grid.Coord{7, 14})
	eng2 := New(md2, 4, nil)
	fl2, err := eng2.Inject(src2, dst2, route.Blind{})
	if err != nil {
		t.Fatal(err)
	}
	eng2.Run(500, eng2.Idle)
	if !fl2.Msg.Arrived {
		t.Fatalf("blind did not arrive: %v", fl2.Msg)
	}
	t.Logf("blind:   %v (D=%d)", fl2.Msg, d0)
	if fl2.Msg.Hops <= fl.Msg.Hops {
		t.Errorf("blind (%d hops) should pay more than limited (%d hops) across the shadow",
			fl2.Msg.Hops, fl.Msg.Hops)
	}
}

// TestShadowNotTrapped checks the critical-routing condition is precise: a
// destination beyond the block on the far side but OUTSIDE the block's span
// is not trapped, so no demotion may occur and the route stays minimal.
func TestShadowNotTrapped(t *testing.T) {
	md, src, dst := buildShadowScenario(t) // dst (14,7): same row as block, outside span? x=14 > 11: outside
	shape := md.M.Shape()
	d0 := shape.Distance(src, dst)
	eng := New(md, 4, nil)
	fl, err := eng.Inject(src, dst, route.Limited{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(500, eng.Idle)
	if !fl.Msg.Arrived {
		t.Fatalf("did not arrive: %v", fl.Msg)
	}
	t.Logf("limited to untrapped dst: %v (D=%d)", fl.Msg, d0)
	if fl.Msg.Hops != d0 {
		t.Errorf("route should be minimal (dst not trapped): hops=%d, D=%d", fl.Msg.Hops, d0)
	}
}
