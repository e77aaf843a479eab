package safety

import (
	"testing"

	"ndmesh/internal/block"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
)

func TestBlockIntersectsAxisSection(t *testing.T) {
	b := meshtest.NewBox(grid.Coord{3, 4}, grid.Coord{5, 6})
	s := grid.Coord{1, 5}
	d := grid.Coord{8, 5}
	// X axis section from (1,5) to (8,5): the block spans x 3..5 and
	// contains y=5: intersects.
	if !BlockIntersectsAxisSection(b, s, d, 0) {
		t.Error("x-section should intersect")
	}
	// Y axis section from (1,5) toward y=5 (no offset): x=1 not inside
	// the block span: no intersection.
	if BlockIntersectsAxisSection(b, s, d, 1) {
		t.Error("y-section should not intersect")
	}
	// Source below the block, same column: y section crosses it.
	s2, d2 := grid.Coord{4, 1}, grid.Coord{4, 8}
	if !BlockIntersectsAxisSection(b, s2, d2, 1) {
		t.Error("column section should intersect")
	}
	// Segment stops short of the block.
	d3 := grid.Coord{4, 2}
	if BlockIntersectsAxisSection(b, s2, d3, 1) {
		t.Error("short segment should not intersect")
	}
	// Reversed direction (d < s) still works.
	if !BlockIntersectsAxisSection(b, d2, s2, 1) {
		t.Error("reversed segment should intersect")
	}
}

func TestSourceSafeNoBlocks(t *testing.T) {
	if !SourceSafe(nil, grid.Coord{0, 0}, grid.Coord{5, 5}) {
		t.Error("fault-free must be safe")
	}
}

func TestSourceSafeExamples(t *testing.T) {
	blocks := []grid.Box{meshtest.NewBox(grid.Coord{3, 4}, grid.Coord{5, 6})}
	// Source at (1,1), dest (8,8): x section at y=1 misses the block
	// (block y span 4..6), y section at x=1 misses (x span 3..5): safe.
	if !SourceSafe(blocks, grid.Coord{1, 1}, grid.Coord{8, 8}) {
		t.Error("corner-to-corner around block should be safe")
	}
	// Source right below the block column: unsafe.
	if SourceSafe(blocks, grid.Coord{4, 1}, grid.Coord{4, 8}) {
		t.Error("column through the block should be unsafe")
	}
	// Source level with the block row: unsafe.
	if SourceSafe(blocks, grid.Coord{1, 5}, grid.Coord{8, 5}) {
		t.Error("row through the block should be unsafe")
	}
}

// TestTheorem2SafeImpliesMinimalPath is the paper's Theorem 2, validated
// exhaustively on randomized configurations: a safe source always has a
// monotone minimal path to the destination.
func TestTheorem2SafeImpliesMinimalPath(t *testing.T) {
	r := rng.New(99)
	safeCount, unsafeCount := 0, 0
	for trial := 0; trial < 200; trial++ {
		m, _ := meshtest.NewUniform(2, 12)
		var seeds []grid.NodeID
		nf := 1 + r.Intn(6)
		for f := 0; f < nf; f++ {
			c := grid.Coord{1 + r.Intn(10), 1 + r.Intn(10)}
			id := m.Shape().Index(c)
			if m.Status(id) == mesh.Faulty {
				continue
			}
			m.Fail(id)
			seeds = append(seeds, id)
		}
		block.Stabilize(m, seeds...)
		var boxes []grid.Box
		for _, b := range block.Extract(m) {
			boxes = append(boxes, b.Box)
		}
		// Random enabled src/dst.
		var src, dst grid.NodeID = grid.InvalidNode, grid.InvalidNode
		for tries := 0; tries < 100; tries++ {
			s := grid.NodeID(r.Intn(m.NumNodes()))
			d := grid.NodeID(r.Intn(m.NumNodes()))
			if s != d && m.Status(s) == mesh.Enabled && m.Status(d) == mesh.Enabled {
				src, dst = s, d
				break
			}
		}
		if src == grid.InvalidNode {
			continue
		}
		if SourceSafe(boxes, m.Shape().CoordOf(src), m.Shape().CoordOf(dst)) {
			safeCount++
			if !MinimalPathExists(m, src, dst) {
				t.Fatalf("trial %d: safe source %v to %v has no minimal path (blocks %v)",
					trial, m.Shape().CoordOf(src), m.Shape().CoordOf(dst), boxes)
			}
		} else {
			unsafeCount++
		}
	}
	if safeCount == 0 || unsafeCount == 0 {
		t.Fatalf("unbalanced sampling: %d safe, %d unsafe", safeCount, unsafeCount)
	}
	t.Logf("checked %d safe and %d unsafe configurations", safeCount, unsafeCount)
}

// TestTheorem2InND extends the check to 3-D and 4-D.
func TestTheorem2InND(t *testing.T) {
	r := rng.New(123)
	for _, dims := range [][]int{{8, 8, 8}, {6, 6, 6, 6}} {
		shape, _ := grid.NewShape(dims...)
		for trial := 0; trial < 40; trial++ {
			m := mesh.New(shape)
			var seeds []grid.NodeID
			for f := 0; f < 3; f++ {
				c := make(grid.Coord, len(dims))
				for i := range c {
					c[i] = 1 + r.Intn(dims[i]-2)
				}
				id := shape.Index(c)
				if m.Status(id) == mesh.Faulty {
					continue
				}
				m.Fail(id)
				seeds = append(seeds, id)
			}
			block.Stabilize(m, seeds...)
			var boxes []grid.Box
			for _, b := range block.Extract(m) {
				boxes = append(boxes, b.Box)
			}
			src := grid.NodeID(r.Intn(shape.NumNodes()))
			dst := grid.NodeID(r.Intn(shape.NumNodes()))
			if src == dst || m.Status(src) != mesh.Enabled || m.Status(dst) != mesh.Enabled {
				continue
			}
			if SourceSafe(boxes, shape.CoordOf(src), shape.CoordOf(dst)) &&
				!MinimalPathExists(m, src, dst) {
				t.Fatalf("%v: safe source without minimal path", dims)
			}
		}
	}
}

func TestMinimalPathExistsBasics(t *testing.T) {
	m, _ := meshtest.NewUniform(2, 8)
	shape := m.Shape()
	s := shape.Index(grid.Coord{1, 1})
	d := shape.Index(grid.Coord{5, 5})
	if !MinimalPathExists(m, s, d) {
		t.Fatal("fault-free minimal path missing")
	}
	if !MinimalPathExists(m, s, s) {
		t.Fatal("self path missing")
	}
	m.Fail(d)
	if MinimalPathExists(m, s, d) {
		t.Fatal("path to faulty destination")
	}
}

func TestMinimalPathBlocked(t *testing.T) {
	m, _ := meshtest.NewUniform(2, 8)
	shape := m.Shape()
	// Full diagonal wall across the monotone region from (1,1) to (4,4):
	// cut the anti-diagonal x+y=5 within the rectangle.
	for _, c := range []grid.Coord{{1, 4}, {2, 3}, {3, 2}, {4, 1}} {
		m.Fail(m.Shape().Index(c))
	}
	s := shape.Index(grid.Coord{1, 1})
	d := shape.Index(grid.Coord{4, 4})
	if MinimalPathExists(m, s, d) {
		t.Fatal("monotone path through a full anti-diagonal wall")
	}
	// A non-minimal path still exists.
	if _, ok := PathExists(m, s, d); !ok {
		t.Fatal("general path should exist around the wall")
	}
}

func TestPathExists(t *testing.T) {
	m, _ := meshtest.NewUniform(2, 8)
	shape := m.Shape()
	s := shape.Index(grid.Coord{0, 0})
	d := shape.Index(grid.Coord{3, 0})
	if l, ok := PathExists(m, s, d); !ok || l != 3 {
		t.Fatalf("PathExists = %d,%v; want 3,true", l, ok)
	}
	if l, ok := PathExists(m, s, s); !ok || l != 0 {
		t.Fatalf("self PathExists = %d,%v", l, ok)
	}
	// Wall the destination in.
	for _, c := range []grid.Coord{{2, 0}, {2, 1}, {3, 1}, {4, 1}, {4, 0}} {
		m.Fail(m.Shape().Index(c))
	}
	if _, ok := PathExists(m, s, d); ok {
		t.Fatal("walled-in destination reachable")
	}
}
