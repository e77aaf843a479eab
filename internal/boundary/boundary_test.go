package boundary

import (
	"slices"
	"testing"

	"ndmesh/internal/block"
	"ndmesh/internal/frame"
	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
)

// fig1Box is the paper's running example block [3:5, 5:6, 3:4].
var fig1Box = meshtest.NewBox(grid.Coord{3, 5, 3}, grid.Coord{5, 6, 4})

func TestOnWall3D(t *testing.T) {
	cases := []struct {
		c    grid.Coord
		want bool
	}{
		// Figure 3(a): the boundary for S4 (+Y) hangs below the block from
		// the edges of S1: wall nodes have one lateral extreme, y below
		// the shell, others in span.
		{grid.Coord{2, 3, 3}, true},  // x at lo-1, y two below block, z in span
		{grid.Coord{6, 0, 4}, true},  // x at hi+1, y far below, z in span
		{grid.Coord{4, 3, 2}, true},  // z at lo-1, y below, x in span
		{grid.Coord{4, 3, 5}, true},  // z at hi+1, y below, x in span
		{grid.Coord{4, 9, 2}, true},  // wall above the block (+Y beyond)
		{grid.Coord{0, 5, 2}, true},  // wall on -X side: x beyond, z extreme, y in span
		{grid.Coord{4, 3, 3}, false}, // inside the shadow, not a wall
		{grid.Coord{2, 4, 3}, false}, // on the shell (level 2), not a wall
		{grid.Coord{2, 3, 2}, false}, // two lateral extremes
		{grid.Coord{0, 0, 0}, false}, // far corner region
		{grid.Coord{4, 5, 3}, false}, // inside block
		{grid.Coord{2, 3}, false},    // wrong dimensionality
	}
	for _, tc := range cases {
		if got := OnWall(fig1Box, tc.c); got != tc.want {
			t.Errorf("OnWall(%v) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

func TestOnPlacement(t *testing.T) {
	// Shell nodes and wall nodes are placement; shadow interior is not.
	if !OnPlacement(fig1Box, grid.Coord{2, 4, 2}) { // corner
		t.Error("corner not on placement")
	}
	if !OnPlacement(fig1Box, grid.Coord{2, 3, 3}) { // wall
		t.Error("wall not on placement")
	}
	if OnPlacement(fig1Box, grid.Coord{4, 2, 3}) { // shadow interior
		t.Error("shadow interior on placement")
	}
	if OnPlacement(fig1Box, grid.Coord{4, 5, 3}) { // block interior
		t.Error("block interior on placement")
	}
}

func TestPlacementMatchesPredicate(t *testing.T) {
	shape := meshtest.MustShape(10, 10, 10)
	ids := Placement(shape, fig1Box)
	inPlacement := make(map[grid.NodeID]bool, len(ids))
	for _, id := range ids {
		inPlacement[id] = true
	}
	// Exactly the nodes satisfying OnPlacement, no more, no less.
	for id := 0; id < shape.NumNodes(); id++ {
		c := shape.CoordOf(grid.NodeID(id))
		want := OnPlacement(fig1Box, c)
		if inPlacement[grid.NodeID(id)] != want {
			t.Fatalf("placement mismatch at %v: enumerated=%v predicate=%v",
				c, inPlacement[grid.NodeID(id)], want)
		}
	}
}

func TestInShadow(t *testing.T) {
	cases := []struct {
		c    grid.Coord
		axis int
		neg  bool
		ok   bool
	}{
		{grid.Coord{4, 2, 3}, 1, true, true},   // below the block (-Y shadow)
		{grid.Coord{4, 4, 3}, 1, true, true},   // adjacent slab counts
		{grid.Coord{4, 9, 4}, 1, false, true},  // above (+Y shadow)
		{grid.Coord{1, 5, 3}, 0, true, true},   // -X shadow
		{grid.Coord{4, 5, 8}, 2, false, true},  // +Z shadow
		{grid.Coord{4, 5, 3}, 0, false, false}, // inside block
		{grid.Coord{2, 3, 3}, 0, false, false}, // outside span on two axes
	}
	for _, tc := range cases {
		axis, neg, ok := InShadow(fig1Box, tc.c)
		if ok != tc.ok || (ok && (axis != tc.axis || neg != tc.neg)) {
			t.Errorf("InShadow(%v) = (%d,%v,%v), want (%d,%v,%v)",
				tc.c, axis, neg, ok, tc.axis, tc.neg, tc.ok)
		}
	}
}

func TestTrapped(t *testing.T) {
	// Message in the -Y shadow: trapped iff dest beyond +Y with x,z inside
	// the span.
	if !Trapped(fig1Box, grid.Coord{4, 9, 3}, 1, true) {
		t.Error("dest straight across must be trapped")
	}
	if Trapped(fig1Box, grid.Coord{8, 9, 3}, 1, true) {
		t.Error("dest outside x-span must not be trapped")
	}
	if Trapped(fig1Box, grid.Coord{4, 2, 3}, 1, true) {
		t.Error("dest on the same side must not be trapped")
	}
	if Trapped(fig1Box, grid.Coord{4, 6, 3}, 1, true) {
		t.Error("dest inside the block span on y must not be trapped")
	}
	// +Y shadow: trapped iff dest below the block.
	if !Trapped(fig1Box, grid.Coord{4, 2, 3}, 1, false) {
		t.Error("dest below must trap a +Y shadow message")
	}
}

// hasBox reports whether node id holds a record of exactly this box.
func hasBox(s *info.Store, id grid.NodeID, box grid.Box) bool {
	b, ok := s.Find(box)
	return ok && s.Has(id, b)
}

// stabilized builds a mesh with the Figure 1 faults and full labeling.
func stabilized(t *testing.T) *mesh.Mesh {
	t.Helper()
	m, err := meshtest.NewUniform(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []grid.Coord{{3, 5, 4}, {4, 5, 4}, {5, 5, 3}, {3, 6, 3}} {
		m.Fail(m.Shape().Index(c))
	}
	block.StabilizeFull(m)
	return m
}

// TestDepositFloodCoversPlacement: a deposit construction seeded at one
// corner must reach exactly the enabled placement nodes.
func TestDepositFloodCoversPlacement(t *testing.T) {
	m := stabilized(t)
	store := info.NewStore(m.Shape())
	p := NewProtocol(m, store)
	corner := m.Shape().Index(grid.Coord{6, 4, 5})
	p.Start(store.Intern(fig1Box), 1, Deposit, []grid.NodeID{corner})
	rounds := 0
	for !p.Quiescent() {
		p.Round()
		rounds++
		if rounds > 500 {
			t.Fatal("flood did not terminate")
		}
	}
	for _, id := range Placement(m.Shape(), fig1Box) {
		if m.Status(id) != mesh.Enabled {
			continue
		}
		if !hasBox(store, id, fig1Box) {
			t.Fatalf("placement node %v lacks record", m.Shape().CoordOf(id))
		}
	}
	// And nothing outside the placement holds it.
	for id := 0; id < m.NumNodes(); id++ {
		c := m.Shape().CoordOf(grid.NodeID(id))
		if !OnPlacement(fig1Box, c) && hasBox(store, grid.NodeID(id), fig1Box) {
			t.Fatalf("non-placement node %v holds record", c)
		}
	}
	t.Logf("flood covered placement in %d rounds, %d hops", rounds, p.Hops)
}

// TestResetRestacksConstructions holds Reset to handing the constructions
// out again in the order the protocol made them, however the run before
// recycled them: a rerun of one history after a Reset gets, at every Start,
// the construction the first run got, so it finds every buffer as large as
// it grew.
func TestResetRestacksConstructions(t *testing.T) {
	m := stabilized(t)
	store := info.NewStore(m.Shape())
	p := NewProtocol(m, store)
	b := store.Intern(fig1Box)
	corner := m.Shape().Index(grid.Coord{6, 4, 5})
	dead := m.Shape().Index(grid.Coord{3, 5, 4}) // a flood seeded here stops at once
	history := func() []*Construction {
		var got []*Construction
		start := func(seed grid.NodeID) {
			got = append(got, p.Start(b, uint32(len(got)+1), Deposit, []grid.NodeID{seed}))
		}
		start(corner)
		start(dead)
		start(dead)
		p.Round() // the two dead floods retire
		start(corner)
		start(corner)
		start(dead) // two recycled, last-in first-out, and one made
		for !p.Quiescent() {
			p.Round()
		}
		start(dead)
		start(corner)
		p.Round() // Reset retires the one still in flight
		return got
	}
	first := history()
	p.Reset()
	if again := history(); !slices.Equal(again, first) {
		t.Fatal("after Reset the Starts got other constructions than the first run's, or in another order")
	}
}

// TestCancelRemovesRecords: a cancel construction with a newer epoch clears
// the deposit.
func TestCancelRemovesRecords(t *testing.T) {
	m := stabilized(t)
	store := info.NewStore(m.Shape())
	p := NewProtocol(m, store)
	corner := m.Shape().Index(grid.Coord{6, 4, 5})
	p.Start(store.Intern(fig1Box), 1, Deposit, []grid.NodeID{corner})
	for !p.Quiescent() {
		p.Round()
	}
	if store.TotalRecords() == 0 {
		t.Fatal("deposit empty")
	}
	p.Start(store.Intern(fig1Box), 2, Cancel, []grid.NodeID{corner})
	for !p.Quiescent() {
		p.Round()
	}
	if store.TotalRecords() != 0 {
		t.Fatalf("%d records survive cancellation", store.TotalRecords())
	}
}

// TestCancelEpochGuard: a stale cancel (epoch older than the deposit) must
// not erase newer information.
func TestCancelEpochGuard(t *testing.T) {
	m := stabilized(t)
	store := info.NewStore(m.Shape())
	p := NewProtocol(m, store)
	corner := m.Shape().Index(grid.Coord{6, 4, 5})
	p.Start(store.Intern(fig1Box), 5, Deposit, []grid.NodeID{corner})
	for !p.Quiescent() {
		p.Round()
	}
	total := store.TotalRecords()
	p.Start(store.Intern(fig1Box), 3, Cancel, []grid.NodeID{corner})
	for !p.Quiescent() {
		p.Round()
	}
	if store.TotalRecords() != total {
		t.Fatalf("stale cancel removed records: %d -> %d", total, store.TotalRecords())
	}
}

// TestMergeFigure3d: when block A's boundary runs into block B, A's record
// must spread over B's adjacent surfaces and boundary (the merge of Figure
// 3(d)). Setup in 2-D: A's wall along -Y from its left edge passes through
// B's frame.
func TestMergeFigure3d(t *testing.T) {
	m, err := meshtest.NewUniform(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Block A at [6:7, 8:9]; block B at [5:5, 4:4] sits exactly on A's
	// x=5 wall (lo-1) below A.
	for _, c := range []grid.Coord{{6, 8}, {7, 9}, {5, 4}} {
		m.Fail(m.Shape().Index(c))
	}
	block.StabilizeFull(m)
	bs := block.Extract(m)
	if len(bs) != 2 {
		t.Fatalf("want 2 blocks, got %+v", bs)
	}
	boxA := meshtest.NewBox(grid.Coord{6, 8}, grid.Coord{7, 9})
	boxB := meshtest.NewBox(grid.Coord{5, 4}, grid.Coord{5, 4})

	store := info.NewStore(m.Shape())
	p := NewProtocol(m, store)
	// B's construction runs first (it exists; its records are in place).
	cornerB := m.Shape().Index(grid.Coord{4, 3})
	p.Start(store.Intern(boxB), 1, Deposit, []grid.NodeID{cornerB})
	for !p.Quiescent() {
		p.Round()
	}
	// Now A's construction: its x=5 wall descends into B's placement.
	cornerA := m.Shape().Index(grid.Coord{5, 7})
	p.Start(store.Intern(boxA), 2, Deposit, []grid.NodeID{cornerA})
	for !p.Quiescent() {
		p.Round()
	}
	// A's record must have merged onto B's adjacent surface nodes beyond
	// the original wall (the wall stops at B's frame; the merge carries it
	// around B).
	mergedNodes := []grid.Coord{
		{4, 4}, // B-adjacent, on the far side of B from A's wall
		{5, 3}, // B-adjacent below B
	}
	for _, c := range mergedNodes {
		if !hasBox(store, m.Shape().Index(c), boxA) {
			t.Errorf("merge did not carry A's record to %v", c)
		}
	}
	// And B's boundary below continues to carry A's record (merged into
	// the boundary for the same surface of the second block).
	if !hasBox(store, m.Shape().Index(grid.Coord{4, 2}), boxA) {
		t.Errorf("A's record did not descend B's boundary")
	}
}

// TestWallStopsAtMeshBorder: boundary propagation ends at the outermost
// surface (no wraparound, no overflow).
func TestWallStopsAtMeshBorder(t *testing.T) {
	m, _ := meshtest.NewUniform(2, 8)
	m.Fail(m.Shape().Index(grid.Coord{4, 4}))
	block.StabilizeFull(m)
	box := grid.BoxAt(grid.Coord{4, 4})
	store := info.NewStore(m.Shape())
	p := NewProtocol(m, store)
	corner := m.Shape().Index(grid.Coord{3, 3})
	p.Start(store.Intern(box), 1, Deposit, []grid.NodeID{corner})
	rounds := 0
	for !p.Quiescent() {
		p.Round()
		rounds++
		if rounds > 200 {
			t.Fatal("flood did not stop")
		}
	}
	// Wall x=3 must reach y=0 and y=7 (the borders) and hold records.
	for _, c := range []grid.Coord{{3, 0}, {3, 7}, {5, 0}, {5, 7}, {0, 3}, {7, 5}} {
		if !hasBox(store, m.Shape().Index(c), box) {
			t.Errorf("border wall node %v lacks record", c)
		}
	}
}

// TestConstructionRoundsTrackDepth: the flood advances one hop per round,
// so rounds scale with shell + wall depth, not with mesh volume.
func TestConstructionRoundsTrackDepth(t *testing.T) {
	m, _ := meshtest.NewUniform(2, 20)
	m.Fail(m.Shape().Index(grid.Coord{10, 10}))
	block.StabilizeFull(m)
	box := grid.BoxAt(grid.Coord{10, 10})
	store := info.NewStore(m.Shape())
	p := NewProtocol(m, store)
	corner := m.Shape().Index(grid.Coord{9, 9})
	c := p.Start(store.Intern(box), 1, Deposit, []grid.NodeID{corner})
	for !p.Quiescent() {
		p.Round()
	}
	// Longest chain: around the shell (a few hops) then down a wall to the
	// border (about 10 hops); must be well under the mesh diameter * 2.
	if c.Rounds > 2*m.Shape().Diameter() {
		t.Fatalf("flood took %d rounds", c.Rounds)
	}
	if c.Rounds < 9 {
		t.Fatalf("flood too fast to be hop-by-hop: %d rounds", c.Rounds)
	}
}

// TestPlacementMatchesPredicate4D verifies the wall geometry in 4-D, where
// the walls are 3-dimensional regions rather than the rays of the paper's
// 3-D figures.
func TestPlacementMatchesPredicate4D(t *testing.T) {
	shape := meshtest.MustShape(7, 7, 7, 7)
	box := meshtest.NewBox(grid.Coord{3, 3, 3, 3}, grid.Coord{4, 4, 3, 3})
	ids := Placement(shape, box)
	inPlacement := make(map[grid.NodeID]bool, len(ids))
	for _, id := range ids {
		inPlacement[id] = true
	}
	for id := 0; id < shape.NumNodes(); id++ {
		c := shape.CoordOf(grid.NodeID(id))
		if inPlacement[grid.NodeID(id)] != OnPlacement(box, c) {
			t.Fatalf("4-D placement mismatch at %v", c)
		}
	}
	// A few hand-computed members: wall on axis 0 (lateral) guarding the
	// -axis1 shadow: x0 = lo0-1 = 2, x1 < lo1-1, x2/x3 in span.
	for _, c := range []grid.Coord{
		{2, 0, 3, 3}, {5, 1, 3, 3}, // axis-0 walls of the axis-1 shadow
		{3, 2, 2, 3}, // axis-2 wall of the axis-1 shadow? x2=2=lo2-1, x1=2<lo1-1? lo1-1=2 -> x1 must be < 2
	} {
		want := OnWall(box, c)
		if !inPlacement[shape.Index(c)] && want {
			t.Fatalf("wall node %v missing from placement", c)
		}
	}
	// The deep diagonal region is never placement.
	if OnPlacement(box, grid.Coord{0, 0, 0, 0}) {
		t.Fatal("diagonal corner region misclassified")
	}
}

// TestFloodCoversPlacement4D runs the flood in 4-D.
func TestFloodCoversPlacement4D(t *testing.T) {
	shape := meshtest.MustShape(7, 7, 7, 7)
	m := mesh.New(shape)
	m.Fail(m.Shape().Index(grid.Coord{3, 3, 3, 3}))
	m.Fail(m.Shape().Index(grid.Coord{4, 4, 3, 3}))
	block.StabilizeFull(m)
	box := meshtest.NewBox(grid.Coord{3, 3, 3, 3}, grid.Coord{4, 4, 3, 3})
	store := info.NewStore(m.Shape())
	p := NewProtocol(m, store)
	corner := shape.Index(grid.Coord{2, 2, 2, 2})
	p.Start(store.Intern(box), 1, Deposit, []grid.NodeID{corner})
	rounds := 0
	for !p.Quiescent() {
		p.Round()
		rounds++
		if rounds > 2000 {
			t.Fatal("4-D flood did not terminate")
		}
	}
	for _, id := range Placement(shape, box) {
		if m.Status(id) == mesh.Enabled && !hasBox(store, id, box) {
			t.Fatalf("4-D placement node %v lacks record", shape.CoordOf(id))
		}
	}
}

// TestShellIsSubsetOfPlacement cross-checks frame and boundary geometry.
func TestShellIsSubsetOfPlacement(t *testing.T) {
	frame.EachShellNode(fig1Box, func(c grid.Coord, level int) {
		if !OnPlacement(fig1Box, c) {
			t.Fatalf("shell node %v not on placement", c)
		}
	})
}

// TestRegionFollowsRecycledBlockID: a flood's region is marked from its
// blocks' cached placements, so an id the store recycles for another box
// must flood that box's placement, not the one it named before.
func TestRegionFollowsRecycledBlockID(t *testing.T) {
	m, _ := meshtest.NewUniform(2, 12)
	for _, c := range []grid.Coord{{3, 3}, {8, 8}} {
		m.Fail(m.Shape().Index(c))
	}
	block.StabilizeFull(m)
	shape := m.Shape()
	store := info.NewStore(shape)
	p := NewProtocol(m, store)
	run := func() {
		for rounds := 0; !p.Quiescent(); rounds++ {
			if rounds > 200 {
				t.Fatal("flood did not terminate")
			}
			p.Round()
		}
	}
	boxA, boxB := grid.BoxAt(grid.Coord{3, 3}), grid.BoxAt(grid.Coord{8, 8})
	a := store.Intern(boxA)
	p.Start(a, 1, Deposit, []grid.NodeID{shape.Index(grid.Coord{2, 2})})
	run()
	p.Start(a, 2, Cancel, []grid.NodeID{shape.Index(grid.Coord{2, 2})})
	run()
	store.Release(a)
	if _, ok := store.Find(boxA); ok {
		t.Fatalf("%v still named after the cancel", boxA)
	}
	b := store.Intern(boxB)
	if b != a {
		t.Fatalf("the store named %v by a fresh id %d, not the recycled %d", boxB, b, a)
	}
	p.Start(b, 3, Deposit, []grid.NodeID{shape.Index(grid.Coord{7, 7})})
	run()
	check := func(b info.BlockID, box grid.Box) {
		t.Helper()
		for id := grid.NodeID(0); int(id) < shape.NumNodes(); id++ {
			want := m.Status(id) == mesh.Enabled && OnPlacement(box, shape.CoordView(id))
			if got := store.Has(id, b); got != want {
				t.Fatalf("node %v holds the recycled id's record of %v: %v, want %v", shape.CoordView(id), box, got, want)
			}
		}
	}
	check(b, boxB)
	// A cleared store hands the id out again while its placement is still
	// cached for the box before: Clear must not rewind the slot's
	// generation, or the second trial would find the first one's again.
	for _, box := range []grid.Box{boxA, boxB} {
		p.Reset()
		store.Clear()
		if c := store.Intern(box); c != a {
			t.Fatalf("the cleared store named %v by id %d, not the recycled %d", box, c, a)
		}
		p.Start(a, 1, Deposit, []grid.NodeID{shape.Index(box.Lo) - grid.NodeID(shape.Stride(1)+1)})
		run()
		check(a, box)
	}
}
