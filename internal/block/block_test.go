package block

import (
	"testing"
	"testing/quick"

	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
)

func mk3D(t *testing.T, k int) *mesh.Mesh {
	t.Helper()
	m, err := meshtest.NewUniform(3, k)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mk2D(t *testing.T, k int) *mesh.Mesh {
	t.Helper()
	m, err := meshtest.NewUniform(2, k)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func failAll(m *mesh.Mesh, coords ...grid.Coord) []grid.NodeID {
	ids := make([]grid.NodeID, len(coords))
	for i, c := range coords {
		ids[i] = m.Shape().Index(c)
		m.Fail(ids[i])
	}
	return ids
}

// TestFigure1BlockConstruction reproduces Figure 1(a): faults (3,5,4),
// (4,5,4), (5,5,3), (3,6,3) in a 3-D mesh form the faulty block
// [3:5, 5:6, 3:4] after the labeling stabilizes.
func TestFigure1BlockConstruction(t *testing.T) {
	m := mk3D(t, 10)
	seeds := failAll(m, grid.Coord{3, 5, 4}, grid.Coord{4, 5, 4}, grid.Coord{5, 5, 3}, grid.Coord{3, 6, 3})
	res := Stabilize(m, seeds...)
	if !res.Converged {
		t.Fatal("labeling did not converge")
	}
	blocks := Extract(m)
	if len(blocks) != 1 {
		t.Fatalf("want 1 block, got %d", len(blocks))
	}
	want := meshtest.NewBox(grid.Coord{3, 5, 3}, grid.Coord{5, 6, 4})
	if !blocks[0].Box.Equal(want) {
		t.Fatalf("block = %v, want %v (the paper's [3:5, 5:6, 3:4])", blocks[0].Box, want)
	}
	if !blocks[0].Solid {
		t.Fatalf("block not solid: %d nodes in %v", blocks[0].Nodes, blocks[0].Box)
	}
	if blocks[0].Faults != 4 {
		t.Fatalf("Faults = %d, want 4", blocks[0].Faults)
	}
	if blocks[0].Nodes != want.Volume() {
		t.Fatalf("Nodes = %d, want %d", blocks[0].Nodes, want.Volume())
	}
	// The disabled nodes are exactly the non-faulty nodes of the box.
	if n := meshtest.Count(m, mesh.Disabled); n != want.Volume()-4 {
		t.Fatalf("disabled = %d, want %d", n, want.Volume()-4)
	}
}

// TestRule1SameAxisDoesNotDisable: two faulty neighbors along one axis do
// not disable the node between them (Definition 1 requires different
// dimensions).
func TestRule1SameAxisDoesNotDisable(t *testing.T) {
	m := mk2D(t, 8)
	seeds := failAll(m, grid.Coord{2, 4}, grid.Coord{4, 4})
	res := Stabilize(m, seeds...)
	if !res.Converged {
		t.Fatal("not converged")
	}
	if m.Status(m.Shape().Index(grid.Coord{3, 4})) != mesh.Enabled {
		t.Fatal("node sandwiched along one axis must stay enabled")
	}
	if bs := Extract(m); len(bs) != 2 {
		t.Fatalf("want 2 singleton blocks, got %d", len(bs))
	}
}

// TestRule1DiagonalDisables: diagonal faults create disabled nodes filling
// the box.
func TestRule1DiagonalDisables(t *testing.T) {
	m := mk2D(t, 8)
	seeds := failAll(m, grid.Coord{3, 3}, grid.Coord{4, 4})
	res := Stabilize(m, seeds...)
	if !res.Converged {
		t.Fatal("not converged")
	}
	for _, c := range []grid.Coord{{3, 4}, {4, 3}} {
		if m.Status(m.Shape().Index(c)) != mesh.Disabled {
			t.Fatalf("%v should be disabled, is %v", c, m.Status(m.Shape().Index(c)))
		}
	}
	bs := Extract(m)
	if len(bs) != 1 || !bs[0].Box.Equal(meshtest.NewBox(grid.Coord{3, 3}, grid.Coord{4, 4})) {
		t.Fatalf("blocks = %v", bs)
	}
}

// TestStaircaseFillsBox: a diagonal staircase of faults stabilizes to the
// full bounding box (multiple labeling waves).
func TestStaircaseFillsBox(t *testing.T) {
	m := mk2D(t, 10)
	seeds := failAll(m, grid.Coord{3, 3}, grid.Coord{4, 4}, grid.Coord{5, 5})
	res := Stabilize(m, seeds...)
	if !res.Converged {
		t.Fatal("not converged")
	}
	bs := Extract(m)
	want := meshtest.NewBox(grid.Coord{3, 3}, grid.Coord{5, 5})
	if len(bs) != 1 || !bs[0].Box.Equal(want) || !bs[0].Solid {
		t.Fatalf("blocks = %+v, want solid %v", bs, want)
	}
	if res.Rounds < 2 {
		t.Fatalf("staircase should take multiple rounds, took %d", res.Rounds)
	}
}

// TestFigure4Recovery reproduces Figure 4 exactly: starting from Figure
// 1's block, node (5,5,3) recovers. The clean wave must release the x=5
// slab, (3,5,3) must stay disabled (two faulty neighbors in different
// dimensions), and (4,5,3) must transition clean -> enabled -> disabled
// again (it ends with faulty neighbor (4,5,4) and disabled neighbor
// (3,5,3) in different dimensions).
func TestFigure4Recovery(t *testing.T) {
	m := mk3D(t, 10)
	seeds := failAll(m, grid.Coord{3, 5, 4}, grid.Coord{4, 5, 4}, grid.Coord{5, 5, 3}, grid.Coord{3, 6, 3})
	Stabilize(m, seeds...)

	// Recover (5,5,3): rule 5 labels it clean.
	rec := m.Shape().Index(grid.Coord{5, 5, 3})
	m.Recover(rec)
	st := NewStepper(m)
	st.Seed(rec)

	// Round 1: the direct disabled neighbors of the recovered node see the
	// clean status and become clean (rule 2).
	st.Round()
	for _, c := range []grid.Coord{{4, 5, 3}, {5, 6, 3}, {5, 5, 4}} {
		if got := m.Status(m.Shape().Index(c)); got != mesh.Clean {
			t.Fatalf("after round 1, %v = %v, want clean", c, got)
		}
	}
	// (3,5,3) must never go clean: faulty neighbors (3,6,3) [Y] and
	// (3,5,4) [Z] are in different dimensions.
	if got := m.Status(m.Shape().Index(grid.Coord{3, 5, 3})); got != mesh.Disabled {
		t.Fatalf("(3,5,3) = %v, want disabled", got)
	}

	res := st.Run()
	if !res.Converged {
		t.Fatal("recovery labeling did not converge")
	}
	// Final statuses per the paper's Figure 4(b): the block shrinks to
	// [3:4, 5:6, 3:4]; (4,5,3) is disabled again; the x=5 slab except the
	// nodes still forced by faults is released.
	if got := m.Status(m.Shape().Index(grid.Coord{4, 5, 3})); got != mesh.Disabled {
		t.Fatalf("(4,5,3) = %v, want disabled (re-disabled after enable)", got)
	}
	if got := m.Status(m.Shape().Index(grid.Coord{5, 5, 3})); got != mesh.Enabled {
		t.Fatalf("recovered (5,5,3) = %v, want enabled", got)
	}
	for _, c := range []grid.Coord{{5, 6, 3}, {5, 5, 4}, {5, 6, 4}} {
		if got := m.Status(m.Shape().Index(c)); got != mesh.Enabled {
			t.Fatalf("released node %v = %v, want enabled", c, got)
		}
	}
	bs := Extract(m)
	want := meshtest.NewBox(grid.Coord{3, 5, 3}, grid.Coord{4, 6, 4})
	if len(bs) != 1 || !bs[0].Box.Equal(want) {
		t.Fatalf("stabilized blocks = %+v, want %v", bs, want)
	}
	if !bs[0].Solid {
		t.Fatalf("shrunk block not solid: %+v", bs[0])
	}
}

// TestRecoveryDissolvesSingletonBlock: recovering the only fault releases
// everything.
func TestRecoveryDissolvesSingletonBlock(t *testing.T) {
	m := mk2D(t, 8)
	id := m.Shape().Index(grid.Coord{4, 4})
	m.Fail(id)
	Stabilize(m, id)
	m.Recover(id)
	res := Stabilize(m, id)
	if !res.Converged {
		t.Fatal("not converged")
	}
	if n := meshtest.Count(m, mesh.Enabled); n != m.NumNodes() {
		t.Fatalf("mesh not fully released: %d of %d nodes enabled", n, m.NumNodes())
	}
	if len(Extract(m)) != 0 {
		t.Fatal("blocks remain after full recovery")
	}
}

// TestRefailWhileCleanQuiesces: a node that recovers and fails again before
// rule 4 releases it leaves Clean for Faulty, and the stepper reads the clean
// set from the mesh, so the labeling reaches quiescence with one singleton
// block and no clean node left behind.
func TestRefailWhileCleanQuiesces(t *testing.T) {
	m := mk2D(t, 8)
	id := m.Shape().Index(grid.Coord{3, 3})
	st := NewStepper(m)
	m.Fail(id)
	st.Seed(id)
	st.Run()
	m.Recover(id)
	st.Seed(id)
	m.Fail(id)
	st.Seed(id)
	res := st.Run()
	if !res.Converged || !st.Quiescent() {
		t.Fatalf("re-failed node: %+v, quiescent %v", res, st.Quiescent())
	}
	if f := meshtest.Count(m, mesh.Faulty); m.NumClean() != 0 || f != 1 {
		t.Fatalf("clean=%d faulty=%d, want 0 and 1", m.NumClean(), f)
	}
	if bs := Extract(m); len(bs) != 1 || bs[0].Box.Volume() != 1 {
		t.Fatalf("want one singleton block, got %+v", bs)
	}
}

// TestRecoverySplitsBlock: recovering the middle fault of a 1-wide block of
// three faults splits it into two singleton blocks.
func TestRecoverySplitsBlock(t *testing.T) {
	m := mk2D(t, 10)
	// Diagonal faults create a 3x3 block.
	seeds := failAll(m, grid.Coord{3, 3}, grid.Coord{4, 4}, grid.Coord{5, 5})
	Stabilize(m, seeds...)
	// Recover the center: the block must split into the two corner
	// singletons.
	mid := m.Shape().Index(grid.Coord{4, 4})
	m.Recover(mid)
	res := Stabilize(m, mid)
	if !res.Converged {
		t.Fatal("not converged")
	}
	bs := Extract(m)
	if len(bs) != 2 {
		t.Fatalf("want 2 blocks after split, got %+v", bs)
	}
	for _, b := range bs {
		if b.Box.Volume() != 1 || !b.Solid {
			t.Fatalf("split block not singleton: %+v", b)
		}
	}
}

// TestReactiveEqualsFull: the frontier-based stabilization must reach the
// same fixed point as seeding every node.
func TestReactiveEqualsFull(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 50; trial++ {
		m1 := mk2D(t, 12)
		m2 := mk2D(t, 12)
		var seeds []grid.NodeID
		for f := 0; f < 6; f++ {
			c := grid.Coord{1 + r.Intn(10), 1 + r.Intn(10)}
			id := m1.Shape().Index(c)
			m1.Fail(id)
			m2.Fail(id)
			seeds = append(seeds, id)
		}
		res1 := Stabilize(m1, seeds...)
		res2 := StabilizeFull(m2)
		if !res1.Converged || !res2.Converged {
			t.Fatal("not converged")
		}
		for id := grid.NodeID(0); int(id) < m1.NumNodes(); id++ {
			if s1, s2 := m1.Status(id), m2.Status(id); s1 != s2 {
				t.Fatalf("trial %d: reactive and full fixpoints differ at node %d: %v vs %v",
					trial, id, s1, s2)
			}
		}
	}
}

// TestBlocksAreSolidDisjointBoxes is the paper's structural invariant
// (Definition 1's faulty blocks): random interior faults always stabilize into
// solid, pairwise-disjoint boxes.
func TestBlocksAreSolidDisjointBoxes(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 80; trial++ {
		m := mk2D(t, 14)
		var seeds []grid.NodeID
		nf := 2 + r.Intn(8)
		for f := 0; f < nf; f++ {
			c := grid.Coord{1 + r.Intn(12), 1 + r.Intn(12)}
			id := m.Shape().Index(c)
			m.Fail(id)
			seeds = append(seeds, id)
		}
		res := Stabilize(m, seeds...)
		if !res.Converged {
			t.Fatalf("trial %d: not converged", trial)
		}
		covered := make([]bool, m.NumNodes())
		for _, b := range Extract(m) {
			if !b.Solid {
				t.Fatalf("trial %d: non-solid block %+v", trial, b)
			}
			b.Box.Each(func(c grid.Coord) {
				id := m.Shape().Index(c)
				if covered[id] {
					t.Fatalf("trial %d: block %v overlaps another at %v", trial, b.Box, c)
				}
				covered[id] = true
			})
		}
	}
}

// TestBlocksAreSolidDisjointBoxes3D extends the invariant to 3-D.
func TestBlocksAreSolidDisjointBoxes3D(t *testing.T) {
	r := rng.New(8)
	for trial := 0; trial < 30; trial++ {
		m := mk3D(t, 8)
		var seeds []grid.NodeID
		nf := 2 + r.Intn(6)
		for f := 0; f < nf; f++ {
			c := grid.Coord{1 + r.Intn(6), 1 + r.Intn(6), 1 + r.Intn(6)}
			id := m.Shape().Index(c)
			m.Fail(id)
			seeds = append(seeds, id)
		}
		res := Stabilize(m, seeds...)
		if !res.Converged {
			t.Fatalf("trial %d: not converged", trial)
		}
		for _, b := range Extract(m) {
			if !b.Solid {
				t.Fatalf("trial %d: non-solid 3-D block %+v", trial, b)
			}
		}
	}
}

// TestConvergenceLocality: a single new fault far from everything touches
// no other node.
func TestConvergenceLocality(t *testing.T) {
	m := mk2D(t, 16)
	id := m.Shape().Index(grid.Coord{8, 8})
	m.Fail(id)
	res := Stabilize(m, id)
	if res.Affected != 0 {
		t.Fatalf("isolated fault affected %d nodes, want 0", res.Affected)
	}
	if res.Rounds > 1 {
		t.Fatalf("isolated fault took %d rounds", res.Rounds)
	}
}

// TestQuickRandomFaultsConverge: property-based convergence within the
// diameter-scaled cap for arbitrary interior fault patterns.
func TestQuickRandomFaultsConverge(t *testing.T) {
	prop := func(raw []uint16) bool {
		m, _ := meshtest.NewUniform(2, 12)
		var seeds []grid.NodeID
		for _, v := range raw {
			x := 1 + int(v%10)
			y := 1 + int((v/10)%10)
			id := m.Shape().Index(grid.Coord{x, y})
			if m.Status(id) != mesh.Faulty {
				m.Fail(id)
				seeds = append(seeds, id)
			}
			if len(seeds) >= 12 {
				break
			}
		}
		res := Stabilize(m, seeds...)
		return res.Converged
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxEdge covers e_max as the engine reads it: the oracle's MaxEdge.
func TestMaxEdge(t *testing.T) {
	m := mk2D(t, 12)
	var o Oracle
	if e := o.MaxEdge(m); e != 0 {
		t.Fatalf("fault-free MaxEdge = %d, want 0", e)
	}
	failAll(m, grid.Coord{0, 0}, grid.Coord{1, 0}, grid.Coord{2, 0},
		grid.Coord{5, 5}, grid.Coord{5, 6}, grid.Coord{5, 7}, grid.Coord{5, 8}, grid.Coord{5, 9})
	StabilizeFull(m)
	if n := len(Extract(m)); n != 2 {
		t.Fatalf("%d blocks, want the two lines", n)
	}
	if e := o.MaxEdge(m); e != 5 {
		t.Fatalf("MaxEdge = %d, want 5", e)
	}
}

// TestExtractOrderingDeterministic: blocks come back sorted by origin.
func TestExtractOrderingDeterministic(t *testing.T) {
	m := mk2D(t, 12)
	failAll(m, grid.Coord{8, 2}, grid.Coord{2, 8}, grid.Coord{5, 5})
	StabilizeFull(m)
	bs := Extract(m)
	if len(bs) != 3 {
		t.Fatalf("want 3 blocks, got %d", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		a, b := bs[i-1].Box.Lo, bs[i].Box.Lo
		if a[0] > b[0] || (a[0] == b[0] && a[1] > b[1]) {
			t.Fatalf("blocks unsorted: %v before %v", a, b)
		}
	}
}
