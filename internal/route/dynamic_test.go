package route

import (
	"testing"

	"ndmesh/internal/block"
	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
)

// TestPropertyNeverEntersFaultyNode: on randomized static scenarios, no
// router ever moves a message onto a faulty node, and every run terminates
// within the step budget.
func TestPropertyNeverEntersFaultyNode(t *testing.T) {
	r := rng.New(404)
	routers := []Router{Limited{}, Blind{}, &Oracle{}}
	for trial := 0; trial < 40; trial++ {
		ctx, m := randomEnv(t, r)
		src, dst := randomPair(m, r)
		if src == grid.InvalidNode {
			continue
		}
		for _, rt := range routers {
			msg := NewMessage(src, dst)
			for i := 0; i < 5000 && !msg.Done(); i++ {
				AdvanceGated(ctx, rt, msg, nil)
				if m.Status(msg.Cur) == mesh.Faulty {
					t.Fatalf("trial %d: %s stepped onto faulty node %v",
						trial, rt.Name(), m.Shape().CoordOf(msg.Cur))
				}
			}
			if !msg.Done() {
				t.Fatalf("trial %d: %s did not terminate: %v", trial, rt.Name(), msg)
			}
		}
	}
}

// TestPropertySearchersAgreeOnReachability: the limited and blind searchers
// and the oracle must agree on whether the destination is reachable.
func TestPropertySearchersAgreeOnReachability(t *testing.T) {
	r := rng.New(505)
	for trial := 0; trial < 40; trial++ {
		ctx, m := randomEnv(t, r)
		src, dst := randomPair(m, r)
		if src == grid.InvalidNode {
			continue
		}
		verdicts := map[string]bool{}
		for _, rt := range []Router{Limited{}, Blind{}, &Oracle{}} {
			msg := NewMessage(src, dst)
			for i := 0; i < 20000 && !msg.Done(); i++ {
				AdvanceGated(ctx, rt, msg, nil)
			}
			if !msg.Done() {
				t.Fatalf("trial %d: %s did not terminate", trial, rt.Name())
			}
			verdicts[rt.Name()] = msg.Arrived
		}
		if verdicts["limited"] != verdicts["oracle"] || verdicts["blind"] != verdicts["oracle"] {
			t.Fatalf("trial %d: reachability disagreement: %v", trial, verdicts)
		}
	}
}

// TestPropertyOracleNeverBeaten: no router produces a shorter walk than the
// oracle on static scenarios.
func TestPropertyOracleNeverBeaten(t *testing.T) {
	r := rng.New(606)
	for trial := 0; trial < 40; trial++ {
		ctx, m := randomEnv(t, r)
		src, dst := randomPair(m, r)
		if src == grid.InvalidNode {
			continue
		}
		oracle := NewMessage(src, dst)
		for i := 0; i < 20000 && !oracle.Done(); i++ {
			AdvanceGated(ctx, &Oracle{}, oracle, nil)
		}
		if !oracle.Arrived {
			continue
		}
		for _, rt := range []Router{Limited{}, Blind{}} {
			msg := NewMessage(src, dst)
			for i := 0; i < 20000 && !msg.Done(); i++ {
				AdvanceGated(ctx, rt, msg, nil)
			}
			if msg.Arrived && msg.Hops < oracle.Hops {
				t.Fatalf("trial %d: %s (%d hops) beat the oracle (%d hops)",
					trial, rt.Name(), msg.Hops, oracle.Hops)
			}
		}
	}
}

// randomEnv builds a random stabilized 2-D scenario with full information.
func randomEnv(t *testing.T, r *rng.Source) (*Context, *mesh.Mesh) {
	t.Helper()
	var coords []grid.Coord
	nf := 2 + r.Intn(8)
	for i := 0; i < nf; i++ {
		coords = append(coords, grid.Coord{1 + r.Intn(12), 1 + r.Intn(12)})
	}
	return env(t, []int{14, 14}, coords)
}

func randomPair(m *mesh.Mesh, r *rng.Source) (grid.NodeID, grid.NodeID) {
	for tries := 0; tries < 200; tries++ {
		s := grid.NodeID(r.Intn(m.NumNodes()))
		d := grid.NodeID(r.Intn(m.NumNodes()))
		if s != d && m.Status(s) == mesh.Enabled && m.Status(d) == mesh.Enabled {
			return s, d
		}
	}
	return grid.InvalidNode, grid.InvalidNode
}

// TestPartialInformationStillCorrect: the limited router with records on
// only SOME nodes (information still converging) remains correct — worst
// case it behaves like the blind searcher.
func TestPartialInformationStillCorrect(t *testing.T) {
	ctx, m := env(t, []int{14, 14}, []grid.Coord{{5, 5}, {6, 6}, {7, 5}})
	// Strip the records from every other node (information mid-flight).
	for id := 0; id < m.NumNodes(); id += 2 {
		recs := ctx.Store.At(grid.NodeID(id))
		for len(recs) > 0 {
			ctx.Store.Remove(grid.NodeID(id), recs[0].Block, ^uint32(0))
			recs = ctx.Store.At(grid.NodeID(id))
		}
	}
	src := m.Shape().Index(grid.Coord{1, 1})
	dst := m.Shape().Index(grid.Coord{12, 12})
	msg := NewMessage(src, dst)
	for i := 0; i < 5000 && !msg.Done(); i++ {
		AdvanceGated(ctx, Limited{}, msg, nil)
	}
	if !msg.Arrived {
		t.Fatalf("partial information broke routing: %v", msg)
	}
}

// TestStaleInformationStillCorrect: records describing blocks that no
// longer exist (pre-cancellation) may cause detours but never break
// correctness.
func TestStaleInformationStillCorrect(t *testing.T) {
	ctx, m := env(t, []int{14, 14}, nil)
	// Plant a phantom block record on every node of its placement, with no
	// actual faults in the mesh.
	phantom := meshtest.NewBox(grid.Coord{6, 6}, grid.Coord{8, 8})
	for id := 0; id < m.NumNodes(); id++ {
		c := m.Shape().CoordOf(grid.NodeID(id))
		if phantomOn(phantom, c) {
			ctx.Store.Add(grid.NodeID(id), info.Record{Block: ctx.Store.Intern(phantom), Epoch: 1})
		}
	}
	src := m.Shape().Index(grid.Coord{7, 1})
	dst := m.Shape().Index(grid.Coord{7, 12})
	msg := NewMessage(src, dst)
	for i := 0; i < 5000 && !msg.Done(); i++ {
		AdvanceGated(ctx, Limited{}, msg, nil)
	}
	if !msg.Arrived {
		t.Fatalf("stale information broke routing: %v", msg)
	}
	// The detour is bounded by the phantom's extent.
	d0 := m.Shape().Distance(src, dst)
	if msg.Hops > d0+2*phantom.MaxExtent()+4 {
		t.Fatalf("stale-info detour unbounded: %d hops (D=%d)", msg.Hops, d0)
	}
}

// phantomOn approximates the placement membership (frame shell or wall) of
// the phantom box.
func phantomOn(b grid.Box, c grid.Coord) bool {
	in, ext, beyond := 0, 0, 0
	for i := range c {
		switch {
		case c[i] >= b.Lo[i] && c[i] <= b.Hi[i]:
			in++
		case c[i] == b.Lo[i]-1 || c[i] == b.Hi[i]+1:
			ext++
		default:
			beyond++
		}
	}
	if in == len(c) {
		return false
	}
	return beyond == 0 || (ext == 1 && beyond == 1)
}

// TestBlocksAfterStabilize is a tiny guard that env produced blocks.
func TestBlocksAfterStabilize(t *testing.T) {
	_, m := env(t, []int{10, 10}, []grid.Coord{{4, 4}})
	if len(block.Extract(m)) != 1 {
		t.Fatal("env did not stabilize the block")
	}
}
