package core

import (
	"strings"
	"testing"

	"ndmesh/internal/block"
	"ndmesh/internal/boundary"
	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/route"
	"ndmesh/internal/safety"
)

func newModel3D(t *testing.T) *Model {
	t.Helper()
	m, err := meshtest.NewUniform(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	return New(m)
}

func newModel2D(t *testing.T, k int) *Model {
	t.Helper()
	m, err := meshtest.NewUniform(2, k)
	if err != nil {
		t.Fatal(err)
	}
	return New(m)
}

// hasBox reports whether node id holds a record of exactly this box.
func hasBox(s *info.Store, id grid.NodeID, box grid.Box) bool {
	b, ok := s.Find(box)
	return ok && s.Has(id, b)
}

// applyAndStabilize injects faults and runs to quiescence.
func applyAndStabilize(t *testing.T, md *Model, coords ...grid.Coord) {
	t.Helper()
	for _, c := range coords {
		md.ApplyFault(md.M.Shape().Index(c))
	}
	md.Stabilize()
	if !md.Quiescent() {
		t.Fatal("model did not quiesce")
	}
}

// TestFullPlacementAfterConstruction: every enabled placement node of each
// block holds its record, and no stale records exist anywhere else.
func TestFullPlacementAfterConstruction(t *testing.T) {
	md := newModel2D(t, 16)
	applyAndStabilize(t, md, grid.Coord{4, 4}, grid.Coord{5, 5}, grid.Coord{10, 10})
	blocks := block.Extract(md.M)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %+v", blocks)
	}
	shape := md.M.Shape()
	for _, b := range blocks {
		for _, id := range boundary.Placement(shape, b.Box) {
			if md.M.Status(id) != mesh.Enabled {
				continue
			}
			if !hasBox(md.Store, id, b.Box) {
				t.Errorf("node %v lacks record for %v", shape.CoordOf(id), b.Box)
			}
		}
	}
	// No record for a box that is not a current block.
	valid := map[string]bool{}
	for _, b := range blocks {
		valid[b.Box.String()] = true
	}
	for id := 0; id < md.M.NumNodes(); id++ {
		for _, r := range md.Store.At(grid.NodeID(id)) {
			if box := md.Store.Box(r.Block); !valid[box.String()] {
				t.Errorf("stale record %v at %v", box, shape.CoordOf(grid.NodeID(id)))
			}
		}
	}
}

// TestRecoveryCancelsOldInformation: after a block fully dissolves, its
// records must be deleted everywhere (the deletion process of Section 3).
func TestRecoveryCancelsOldInformation(t *testing.T) {
	md := newModel2D(t, 12)
	c := grid.Coord{6, 6}
	applyAndStabilize(t, md, c)
	box := grid.BoxAt(c)
	if md.Store.TotalRecords() == 0 {
		t.Fatal("no records constructed")
	}
	md.ApplyRecovery(md.M.Shape().Index(c))
	md.Stabilize()
	if !md.Quiescent() {
		t.Fatal("not quiescent after recovery")
	}
	if md.CancelsStarted == 0 {
		t.Fatal("no cancellation launched")
	}
	for id := 0; id < md.M.NumNodes(); id++ {
		if hasBox(md.Store, grid.NodeID(id), box) {
			t.Fatalf("stale record at %v after dissolution", md.M.Shape().CoordOf(grid.NodeID(id)))
		}
	}
}

// TestShrinkReplacesInformation is the Figure 4 scenario followed through
// the whole information model: the block [3:5,5:6,3:4] shrinks to
// [3:4,5:6,3:4]; the old record must be cancelled and the new one
// constructed.
func TestShrinkReplacesInformation(t *testing.T) {
	md := newModel3D(t)
	applyAndStabilize(t, md,
		grid.Coord{3, 5, 4}, grid.Coord{4, 5, 4}, grid.Coord{5, 5, 3}, grid.Coord{3, 6, 3})
	oldBox := meshtest.NewBox(grid.Coord{3, 5, 3}, grid.Coord{5, 6, 4})
	newBox := meshtest.NewBox(grid.Coord{3, 5, 3}, grid.Coord{4, 6, 4})

	md.ApplyRecovery(md.M.Shape().Index(grid.Coord{5, 5, 3}))
	md.Stabilize()
	if !md.Quiescent() {
		t.Fatal("not quiescent after shrink")
	}
	bs := block.Extract(md.M)
	if len(bs) != 1 || !bs[0].Box.Equal(newBox) {
		t.Fatalf("blocks after shrink = %+v", bs)
	}
	shape := md.M.Shape()
	// New records in place over the new placement.
	for _, id := range boundary.Placement(shape, newBox) {
		if md.M.Status(id) == mesh.Enabled && !hasBox(md.Store, id, newBox) {
			t.Errorf("missing new record at %v", shape.CoordOf(id))
		}
	}
	// Old records gone everywhere.
	for id := 0; id < md.M.NumNodes(); id++ {
		if hasBox(md.Store, grid.NodeID(id), oldBox) {
			t.Errorf("stale record for old box at %v", shape.CoordOf(grid.NodeID(id)))
		}
	}
}

// TestGrowthReplacesDominatedRecords: growing a block leaves no stale
// small-box records on the new placement.
func TestGrowthReplacesDominatedRecords(t *testing.T) {
	md := newModel2D(t, 14)
	applyAndStabilize(t, md, grid.Coord{6, 6})
	small := grid.BoxAt(grid.Coord{6, 6})
	if md.Store.TotalRecords() == 0 {
		t.Fatal("no initial records")
	}
	// Grow: diagonal fault extends the block to [6:7, 6:7].
	md.ApplyFault(md.M.Shape().Index(grid.Coord{7, 7}))
	md.Stabilize()
	if !md.Quiescent() {
		t.Fatal("not quiescent after growth")
	}
	bigBox := meshtest.NewBox(grid.Coord{6, 6}, grid.Coord{7, 7})
	bs := block.Extract(md.M)
	if len(bs) != 1 || !bs[0].Box.Equal(bigBox) {
		t.Fatalf("blocks = %+v", bs)
	}
	shape := md.M.Shape()
	for _, id := range boundary.Placement(shape, bigBox) {
		if md.M.Status(id) != mesh.Enabled {
			continue
		}
		if !hasBox(md.Store, id, bigBox) {
			t.Errorf("missing grown record at %v", shape.CoordOf(id))
		}
		if hasBox(md.Store, id, small) {
			t.Errorf("stale dominated record at %v", shape.CoordOf(id))
		}
	}
}

// TestTheorem1RecoveryDoesNotHurtRouting: Theorem 1 — the constructions of
// fault recovery do not affect the optimal routing. A safe-source routing
// running while a block shrinks must stay minimal.
func TestTheorem1RecoveryDoesNotHurtRouting(t *testing.T) {
	md := newModel2D(t, 16)
	// Block away from the source's axis sections: source safe.
	applyAndStabilize(t, md, grid.Coord{7, 7}, grid.Coord{8, 8})
	shape := md.M.Shape()
	src := shape.Index(grid.Coord{2, 3})
	dst := shape.Index(grid.Coord{13, 12})
	var boxes []grid.Box
	for _, b := range block.Extract(md.M) {
		boxes = append(boxes, b.Box)
	}
	if !safety.SourceSafe(boxes, shape.CoordOf(src), shape.CoordOf(dst)) {
		t.Fatal("setup: source should be safe")
	}
	// Drive a route.Limited routing by hand, recovering a node mid-flight.
	ctx := &route.Context{M: md.M, Store: md.Store}
	msg := route.NewMessage(src, dst)
	stepsAtRecovery := 4
	d0 := shape.Distance(src, dst)
	for i := 0; ; i++ {
		if i == stepsAtRecovery {
			md.ApplyRecovery(shape.Index(grid.Coord{8, 8}))
		}
		for l := 0; l < 2; l++ {
			md.Round()
		}
		if !route.AdvanceGated(ctx, route.Limited{}, msg, nil) {
			break
		}
		if i > 10*d0 {
			t.Fatal("routing did not terminate")
		}
	}
	if !msg.Arrived {
		t.Fatalf("message did not arrive: %v", msg)
	}
	if msg.Hops != d0 {
		t.Fatalf("recovery disturbed the optimal routing: hops=%d, D=%d", msg.Hops, d0)
	}
}

// TestEpochsIncrease: every construction bumps the model epoch.
func TestEpochsIncrease(t *testing.T) {
	md := newModel2D(t, 12)
	applyAndStabilize(t, md, grid.Coord{5, 5})
	e1 := md.epoch
	if e1 == 0 {
		t.Fatal("no epoch assigned")
	}
	md.ApplyFault(md.M.Shape().Index(grid.Coord{6, 6}))
	md.Stabilize()
	if md.epoch <= e1 {
		t.Fatalf("epoch did not advance: %d -> %d", e1, md.epoch)
	}
}

// TestIdleRoundCheap: a quiescent model's round does nothing.
func TestIdleRoundCheap(t *testing.T) {
	md := newModel2D(t, 12)
	applyAndStabilize(t, md, grid.Coord{5, 5})
	if act := md.Round(); act != 0 {
		t.Fatalf("idle round reported activity %d", act)
	}
}

// TestWatchOrderIsBoxText: the watch list is sorted by the bytes of its
// boxes as grid.Box.String formats them, not numerically — on 16x16 the box
// at x = 10 sorts before the one at x = 9 — since that order is the
// deletion trigger's visit order and so the order of cancellation epochs.
func TestWatchOrderIsBoxText(t *testing.T) {
	md := newModel2D(t, 16)
	boxes := []grid.Box{
		grid.BoxAt(grid.Coord{9, 3}), grid.BoxAt(grid.Coord{10, 3}),
		grid.BoxAt(grid.Coord{1, 12}), grid.BoxAt(grid.Coord{1, 2}),
		meshtest.NewBox(grid.Coord{9, 3}, grid.Coord{11, 3}),
		meshtest.NewBox(grid.Coord{2, 5}, grid.Coord{2, 6}),
	}
	for _, a := range boxes {
		w := &watched{block: md.Store.Intern(a)}
		for _, b := range boxes {
			want := strings.Compare(a.String(), b.String())
			if got := md.compareWatch(w, b); got != want {
				t.Errorf("a watch of %v against %v compares %d, want %d", a, b, got, want)
			}
		}
	}
	nine := &watched{block: md.Store.Intern(boxes[0])}
	if md.compareWatch(nine, boxes[1]) <= 0 {
		t.Errorf("the watch of %v sorts before %v", boxes[0], boxes[1])
	}
}
