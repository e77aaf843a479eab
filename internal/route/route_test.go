package route

import (
	"testing"

	"ndmesh/internal/block"
	"ndmesh/internal/boundary"
	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
)

// env builds a mesh with stabilized faults and a fully deposited info
// store (oracle placement, as after the distributed constructions settle).
func env(t *testing.T, dims []int, faults []grid.Coord) (*Context, *mesh.Mesh) {
	t.Helper()
	shape, err := grid.NewShape(dims...)
	if err != nil {
		t.Fatal(err)
	}
	m := mesh.New(shape)
	for _, c := range faults {
		m.Fail(m.Shape().Index(c))
	}
	block.StabilizeFull(m)
	store := info.NewStore(m.Shape())
	for i, b := range block.Extract(m) {
		for _, id := range boundary.Placement(shape, b.Box) {
			if m.Status(id) == mesh.Enabled {
				store.Add(id, info.Record{Block: store.Intern(b.Box), Epoch: uint32(i + 1)})
			}
		}
	}
	return &Context{M: m, Store: store}, m
}

// runToEnd drives a message to termination with a step cap.
func runToEnd(t *testing.T, ctx *Context, r Router, msg *Message) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if !AdvanceGated(ctx, r, msg, nil) {
			return
		}
	}
	t.Fatalf("message did not terminate: %v", msg)
}

func TestFaultFreeMinimal(t *testing.T) {
	ctx, m := env(t, []int{8, 8}, nil)
	src := m.Shape().Index(grid.Coord{1, 1})
	dst := m.Shape().Index(grid.Coord{6, 5})
	for _, r := range []Router{Limited{}, Blind{}, &Oracle{}, DOR{}} {
		msg := NewMessage(src, dst)
		runToEnd(t, ctx, r, msg)
		if !msg.Arrived {
			t.Fatalf("%s did not arrive: %v", r.Name(), msg)
		}
		if msg.Hops != 9 {
			t.Fatalf("%s not minimal: %d hops", r.Name(), msg.Hops)
		}
	}
}

func TestArrivalAtSelfIsImmediate(t *testing.T) {
	ctx, m := env(t, []int{4, 4}, nil)
	id := m.Shape().Index(grid.Coord{2, 2})
	msg := NewMessage(id, id)
	AdvanceGated(ctx, Limited{}, msg, nil)
	if !msg.Arrived || msg.Hops != 0 {
		t.Fatalf("self route wrong: %v", msg)
	}
}

// TestPriorityPreferredFirst: with a free choice, a preferred direction is
// taken, never a spare.
func TestPriorityPreferredFirst(t *testing.T) {
	ctx, m := env(t, []int{8, 8}, nil)
	src := m.Shape().Index(grid.Coord{3, 3})
	dst := m.Shape().Index(grid.Coord{5, 6})
	msg := NewMessage(src, dst)
	d := Limited{}.Decide(ctx, msg)
	if !d.Move {
		t.Fatalf("no move: %+v", d)
	}
	if d.Dir != grid.DirPlus(0) { // the lowest direction wins among {+X, +Y}
		t.Fatalf("picked %v, want +X", d.Dir)
	}
}

// TestDemotionAtBoundary: the preferred direction into a shadow with a
// trapped destination is demoted; the message slides along the wall.
func TestDemotionAtBoundary(t *testing.T) {
	// Block [3:6, 4:5]; message at (2,2) heading to (4,7): +Y is
	// preferred but (2,3)... actually put the message ON the wall:
	// wall x=2 (lo-1), below the block. At (2,3): step +X enters shadow
	// (3,3) — wait (3,3) is in the shadow (y=3 < 4, x within span).
	ctx, m := env(t, []int{10, 10}, []grid.Coord{{3, 4}, {4, 5}, {5, 4}, {6, 5}})
	shape := m.Shape()
	// The staircase of faults stabilizes to the block [3:6, 4:5].
	bs := block.Extract(m)
	if len(bs) != 1 || !bs[0].Box.Equal(meshtest.NewBox(grid.Coord{3, 4}, grid.Coord{6, 5})) {
		t.Fatalf("unexpected blocks: %+v", bs)
	}
	u := shape.Index(grid.Coord{2, 3})
	dst := shape.Index(grid.Coord{4, 8}) // beyond +Y, x inside span: trapped
	if len(ctx.Store.At(u)) == 0 {
		t.Fatal("wall node has no record")
	}
	msg := NewMessage(u, dst)
	d := Limited{}.Decide(ctx, msg)
	if !d.Move || d.Dir != grid.DirPlus(1) {
		t.Fatalf("want +Y along the wall, got %+v", d.Dir)
	}
	// Same spot, destination NOT trapped (x beyond span): +X is fine.
	msg2 := NewMessage(u, shape.Index(grid.Coord{8, 8}))
	d2 := Limited{}.Decide(ctx, msg2)
	if !d2.Move || d2.Dir != grid.DirPlus(0) {
		t.Fatalf("untrapped dest should go +X, got %+v", d2.Dir)
	}
}

// TestSpareAlongBlock: when all preferred directions are demoted or
// blocked, the spare with the shortest run around the block is chosen.
func TestSpareAlongBlock(t *testing.T) {
	// Wide block [3:8, 5:6]; message right below it at (7,4), dest right
	// above at (7,9): preferred +Y blocked by the block itself? (7,5) is
	// disabled/faulty -> skipped; preferred set empty; +X exits the span
	// in 2 steps (8->9), -X in 5: choose +X.
	ctx, m := env(t, []int{12, 12}, []grid.Coord{{3, 5}, {4, 6}, {5, 5}, {6, 6}, {7, 5}, {8, 6}})
	shape := m.Shape()
	bs := block.Extract(m)
	if len(bs) != 1 || !bs[0].Box.Equal(meshtest.NewBox(grid.Coord{3, 5}, grid.Coord{8, 6})) {
		t.Fatalf("unexpected blocks: %+v", bs)
	}
	u := shape.Index(grid.Coord{7, 4})
	dst := shape.Index(grid.Coord{7, 9})
	msg := NewMessage(u, dst)
	d := Limited{}.Decide(ctx, msg)
	if !d.Move || d.Dir != grid.DirPlus(0) {
		t.Fatalf("want spare +X (shortest run around block), got %+v", d)
	}
}

// TestUsedDirectionsNeverRepeat: Algorithm 3 records used directions per
// node; a full walk never reuses one.
func TestUsedDirectionsNeverRepeat(t *testing.T) {
	ctx, m := env(t, []int{10, 10}, []grid.Coord{{4, 4}, {5, 5}, {4, 6}, {6, 3}})
	src := m.Shape().Index(grid.Coord{1, 1})
	dst := m.Shape().Index(grid.Coord{8, 8})
	msg := NewMessage(src, dst)
	type move struct {
		from grid.NodeID
		dir  grid.Dir
	}
	seen := map[move]int{}
	for i := 0; i < 10000 && !msg.Done(); i++ {
		cur := msg.Cur
		before := msg.Hops
		backs := msg.Backtracks
		AdvanceGated(ctx, Blind{}, msg, nil)
		if msg.Hops > before && msg.Backtracks == backs && msg.Incoming != grid.InvalidDir {
			mv := move{cur, msg.Incoming}
			seen[mv]++
			if seen[mv] > 1 {
				t.Fatalf("direction %v reused at node %v", msg.Incoming, m.Shape().CoordOf(cur))
			}
		}
	}
	if !msg.Arrived {
		t.Fatalf("did not arrive: %v", msg)
	}
}

// TestUnreachableDestination: a destination walled in by faults must be
// reported unreachable by the searchers and by the oracle.
func TestUnreachableDestination(t *testing.T) {
	// Wall off (8,8) completely.
	walls := []grid.Coord{{7, 8}, {9, 8}, {8, 7}, {8, 9}}
	ctx, m := env(t, []int{10, 10}, walls)
	src := m.Shape().Index(grid.Coord{1, 1})
	dst := m.Shape().Index(grid.Coord{8, 8})
	for _, r := range []Router{Limited{}, Blind{}, &Oracle{}} {
		msg := NewMessage(src, dst)
		runToEnd(t, ctx, r, msg)
		if !msg.Unreachable {
			t.Fatalf("%s should report unreachable: %v", r.Name(), msg)
		}
	}
}

// TestBacktrackIntoDeadEnd: a pocket forces the blind router to backtrack
// out and still arrive.
func TestBacktrackIntoDeadEnd(t *testing.T) {
	// A U-shaped pocket opening downward on the way: walls at x=4..6.
	pocket := []grid.Coord{{4, 4}, {4, 5}, {4, 6}, {5, 6}, {6, 6}, {6, 5}, {6, 4}}
	ctx, m := env(t, []int{12, 12}, pocket)
	src := m.Shape().Index(grid.Coord{5, 1})
	dst := m.Shape().Index(grid.Coord{5, 9})
	msg := NewMessage(src, dst)
	runToEnd(t, ctx, Blind{}, msg)
	if !msg.Arrived {
		t.Fatalf("blind did not escape the pocket: %v", msg)
	}
	if msg.Backtracks == 0 {
		t.Log("note: pocket avoided without backtracking (statuses made walls visible)")
	}
}

// TestDisabledCurrentNodeBacktracks: Algorithm 3 step 1.
func TestDisabledCurrentNodeBacktracks(t *testing.T) {
	ctx, m := env(t, []int{8, 8}, nil)
	src := m.Shape().Index(grid.Coord{2, 2})
	dst := m.Shape().Index(grid.Coord{6, 6})
	msg := NewMessage(src, dst)
	AdvanceGated(ctx, Limited{}, msg, nil) // moves to (3,2)
	if msg.Cur == src {
		t.Fatal("message did not move")
	}
	// The node under the message becomes disabled (dynamic fault wave).
	m.SetStatus(msg.Cur, mesh.Disabled)
	backs := msg.Backtracks
	AdvanceGated(ctx, Limited{}, msg, nil)
	if msg.Backtracks != backs+1 || msg.Cur != src {
		t.Fatalf("message did not backtrack off the disabled node: %v", msg)
	}
}

// TestLostWhenPathNodeFails: backtracking onto a failed node loses the
// message (accounted, not panicking).
func TestLostWhenPathNodeFails(t *testing.T) {
	ctx, m := env(t, []int{8, 8}, nil)
	src := m.Shape().Index(grid.Coord{2, 2})
	dst := m.Shape().Index(grid.Coord{6, 6})
	msg := NewMessage(src, dst)
	AdvanceGated(ctx, Limited{}, msg, nil)
	// Fail both the current node's location and the path back.
	m.SetStatus(msg.Cur, mesh.Disabled)
	m.Fail(src)
	AdvanceGated(ctx, Limited{}, msg, nil)
	if !msg.Lost {
		t.Fatalf("message should be lost: %v", msg)
	}
}

// TestOracleOptimal: the oracle's path length equals the true BFS distance
// in the enabled subgraph.
func TestOracleOptimal(t *testing.T) {
	faults := []grid.Coord{{4, 4}, {5, 4}, {6, 4}, {4, 5}, {5, 5}, {6, 5}}
	ctx, m := env(t, []int{10, 10}, faults)
	src := m.Shape().Index(grid.Coord{5, 2})
	dst := m.Shape().Index(grid.Coord{5, 8})
	msg := NewMessage(src, dst)
	runToEnd(t, ctx, &Oracle{}, msg)
	if !msg.Arrived {
		t.Fatalf("oracle failed: %v", msg)
	}
	// True distance: around the 3-wide block: D=6 plus 2*2 detour.
	if msg.Hops != 10 {
		t.Fatalf("oracle hops = %d, want 10", msg.Hops)
	}
}

// TestRestoreInvalidatesOracle: the oracle's distance fields are cached against
// the mesh version, so restoring a saved status picture — every node
// relabeled through SetStatus — must advance it: one Oracle routes around a
// wall, the wall is restored away, and the next message to the same
// destination must take the straight path.
func TestRestoreInvalidatesOracle(t *testing.T) {
	ctx, m := env(t, []int{7, 7}, nil)
	faultFree := meshtest.Statuses(m)
	for x := 0; x < 6; x++ {
		m.Fail(m.Shape().Index(grid.Coord{x, 3}))
	}
	src, dst := m.Shape().Index(grid.Coord{0, 0}), m.Shape().Index(grid.Coord{0, 6})
	o := &Oracle{}
	msg := NewMessage(src, dst)
	runToEnd(t, ctx, o, msg)
	if !msg.Arrived || msg.Hops != 18 {
		t.Fatalf("around the wall: %v, want arrival in 18 hops", msg)
	}
	meshtest.Restore(m, faultFree)
	msg = NewMessage(src, dst)
	runToEnd(t, ctx, o, msg)
	if !msg.Arrived || msg.Hops != 6 {
		t.Fatalf("after Restore: %v, want arrival in 6 hops (a stale distance field still walks around the wall)", msg)
	}
}

// TestOracleFollowsMesh: versions of different meshes collide, so the
// oracle's table is keyed by the mesh too. A (a wall at y = 3, x 0-5) and B
// (the column x = 6, y 0-5) are both at version 6; one Oracle routes across
// A, then must route across B as a fresh one does, not from A's fields.
func TestOracleFollowsMesh(t *testing.T) {
	shape := meshtest.MustShape(7, 7)
	a, b := mesh.New(shape), mesh.New(shape)
	for i := 0; i < 6; i++ {
		a.Fail(a.Shape().Index(grid.Coord{i, 3}))
		b.Fail(b.Shape().Index(grid.Coord{6, i}))
	}
	if a.Version() != b.Version() {
		t.Fatalf("versions %d and %d: the scenario needs them equal", a.Version(), b.Version())
	}
	src, dst := shape.Index(grid.Coord{0, 0}), shape.Index(grid.Coord{0, 6})
	o := &Oracle{}
	for _, step := range []struct {
		m    *mesh.Mesh
		hops int
	}{{a, 18}, {b, 6}, {a, 18}} {
		msg := NewMessage(src, dst)
		runToEnd(t, &Context{M: step.m}, o, msg)
		if !msg.Arrived || msg.Hops != step.hops {
			t.Fatalf("%v, want arrival in %d hops (a table keyed by version alone serves the other mesh's fields)", msg, step.hops)
		}
	}
}

// TestOracleFieldCache holds one Oracle's table to the per-decision reference
// BFS (refDistances) while consecutive decisions change destination: across
// every way a mesh changes — Fail, Recover, SetStatus both ways between
// Disabled and Clean, Restore, Reset — across two meshes at one version, and
// on 128x128, where the budget holds 64 fields, across full tables: 65
// destinations, three times over.
func TestOracleFieldCache(t *testing.T) {
	o := &Oracle{}
	decisions := 0
	// check decides from every cur to every dst on every mesh, the mesh
	// changing fastest and the destination next.
	check := func(stage string, curs, dsts []grid.NodeID, ms ...*mesh.Mesh) {
		t.Helper()
		for _, cur := range curs {
			for _, dst := range dsts {
				for i, m := range ms {
					ctx := &Context{M: m}
					msg := NewMessage(cur, dst)
					if got, want := o.Decide(ctx, msg), referenceDecision(o, ctx, msg); got != want {
						t.Fatalf("%s, mesh %d: %d -> %d: decided %+v, reference %+v", stage, i, cur, dst, got, want)
					}
					decisions++
				}
			}
		}
	}
	shape := meshtest.MustShape(10, 10)
	ids := func(cs ...grid.Coord) []grid.NodeID {
		out := make([]grid.NodeID, len(cs))
		for i, c := range cs {
			out[i] = shape.Index(c)
		}
		return out
	}
	curs := ids(grid.Coord{1, 1}, grid.Coord{4, 2}, grid.Coord{8, 1}, grid.Coord{2, 8}, grid.Coord{3, 5})
	dsts := ids(grid.Coord{1, 8}, grid.Coord{5, 9}, grid.Coord{8, 7}, grid.Coord{0, 0}, grid.Coord{9, 5}, grid.Coord{4, 5})
	wall := func(m *mesh.Mesh) { // y = 5, x 0-8: the gap is x = 9
		for x := 0; x < 9; x++ {
			m.Fail(m.Shape().Index(grid.Coord{x, 5}))
		}
	}
	m := mesh.New(shape)
	check("fault-free", curs, dsts, m)
	wall(m)
	check("Fail", curs, dsts, m)
	snap := meshtest.Statuses(m)
	m.Recover(m.Shape().Index(grid.Coord{3, 5}))
	m.Recover(m.Shape().Index(grid.Coord{4, 5}))
	check("Recover", curs, dsts, m)
	m.SetStatus(shape.Index(grid.Coord{3, 5}), mesh.Disabled)
	check("Clean -> Disabled", curs, dsts, m)
	m.SetStatus(shape.Index(grid.Coord{3, 5}), mesh.Clean)
	check("Disabled -> Clean", curs, dsts, m)
	m.SetStatus(shape.Index(grid.Coord{3, 5}), mesh.Enabled)
	m.SetStatus(shape.Index(grid.Coord{4, 5}), mesh.Enabled)
	check("Clean -> Enabled", curs, dsts, m)
	meshtest.Restore(m, snap)
	check("Restore", curs, dsts, m)
	m.Reset()
	check("Reset", curs, dsts, m)
	a, b := mesh.New(shape), mesh.New(shape)
	wall(a)
	for y := 1; y < 10; y++ { // the column x = 5, y 1-9
		b.Fail(b.Shape().Index(grid.Coord{5, y}))
	}
	if a.Version() != b.Version() {
		t.Fatalf("versions %d and %d: the two-mesh stage needs them equal", a.Version(), b.Version())
	}
	check("two meshes", curs, dsts, a, b)

	shape = meshtest.MustShape(128, 128)
	big := mesh.New(shape)
	for x := 1; x < 127; x++ { // y = 64: the gaps are x = 0 and x = 127
		big.Fail(big.Shape().Index(grid.Coord{x, 64}))
	}
	curs = ids(grid.Coord{64, 10}, grid.Coord{20, 30}, grid.Coord{100, 50})
	n := shape.NumNodes()
	dsts = dsts[:0]
	for i := 0; i <= fieldBudget/n; i++ {
		dsts = append(dsts, shape.Index(grid.Coord{i * 127 / (fieldBudget / n), 100 + i%20}))
	}
	check("128x128", curs, dsts, big)
	if cap(o.dist) != fieldBudget || len(o.dist) == fieldBudget {
		t.Fatalf("table holds %d of %d entries, want capacity %d and a drop past it", len(o.dist), cap(o.dist), fieldBudget)
	}
	t.Logf("%d decisions", decisions)
}

// TestDORFailsOnBlock: dimension-order gives up at the first bad hop.
func TestDORFailsOnBlock(t *testing.T) {
	ctx, m := env(t, []int{10, 10}, []grid.Coord{{5, 2}})
	src := m.Shape().Index(grid.Coord{2, 2})
	dst := m.Shape().Index(grid.Coord{8, 2})
	msg := NewMessage(src, dst)
	runToEnd(t, ctx, DOR{}, msg)
	if !msg.Unreachable {
		t.Fatalf("DOR should fail on the blocked row: %v", msg)
	}
}

// TestLimitedMinimalWhenSafe: for a safe source (no block on the axis
// sections), the limited router is minimal even with blocks nearby.
func TestLimitedMinimalWhenSafe(t *testing.T) {
	ctx, m := env(t, []int{12, 12}, []grid.Coord{{4, 7}, {5, 8}})
	shape := m.Shape()
	src := shape.Index(grid.Coord{1, 1})
	dst := shape.Index(grid.Coord{9, 5})
	msg := NewMessage(src, dst)
	runToEnd(t, ctx, Limited{}, msg)
	if !msg.Arrived || msg.Hops != shape.Distance(src, dst) {
		t.Fatalf("safe route not minimal: %v (D=%d)", msg, shape.Distance(src, dst))
	}
}

// TestByName covers the registry, and CheckName's agreement with it.
func TestByName(t *testing.T) {
	for _, name := range []string{"limited", "congested", "blind", "oracle", "dor"} {
		r, err := ByName(name)
		if err != nil || r.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v", name, r, err)
		}
		if err := CheckName(name); err != nil {
			t.Errorf("CheckName(%q) = %v for a router ByName builds", name, err)
		}
	}
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("unknown router accepted")
	}
	if cerr := CheckName("nope"); cerr == nil || cerr.Error() != err.Error() {
		t.Errorf("CheckName(nope) = %v, want ByName's %v", cerr, err)
	}
}

// TestMessageString covers terminal-state rendering.
func TestMessageString(t *testing.T) {
	msg := NewMessage(1, 2)
	if got := msg.String(); got == "" {
		t.Fatal("empty String")
	}
	msg.Arrived = true
	if got := msg.String(); !contains(got, "arrived") {
		t.Fatalf("String = %q", got)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || searchStr(s, sub))
}

func searchStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
