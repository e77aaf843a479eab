package boundary

import (
	"slices"
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/rng"
)

// randomShape draws a mixed-radix shape of the given dimensionality, small
// enough to check every node.
func randomShape(src *rng.Source, dims int) *grid.Shape {
	radices := make([]int, dims)
	for i := range radices {
		radices[i] = 3 + src.Intn(9-dims) // 2-D: 3..9, 3-D: 3..8, 4-D: 3..7
	}
	return grid.MustShape(radices...)
}

// randomBox draws a box inside the shape: single nodes, boxes touching the
// mesh border (which the paper's model excludes but a fault process draws)
// and full-width boxes all occur.
func randomBox(src *rng.Source, shape *grid.Shape) grid.Box {
	lo, hi := make(grid.Coord, shape.Dims()), make(grid.Coord, shape.Dims())
	for i := range lo {
		lo[i] = src.Intn(shape.Radix(i))
		hi[i] = lo[i]
		if src.Intn(3) > 0 {
			hi[i] += src.Intn(shape.Radix(i) - lo[i])
		}
	}
	return grid.NewBox(lo, hi)
}

// TestPlacementEnumeratorMatchesPredicate is the geometry differential of
// the flood region: over random mixed-radix 2-D..4-D shapes, the bitset
// markPlacement builds for one box, and for a union of 2-6 boxes OR-ed into
// one set the way a merging flood does, holds exactly the nodes OnPlacement
// accepts; Placement lists the same set in id order.
func TestPlacementEnumeratorMatchesPredicate(t *testing.T) {
	src := rng.New(19)
	border, single := 0, 0
	for trial := 0; trial < 600; trial++ {
		shape := randomShape(src, 2+trial%3)
		boxes := []grid.Box{randomBox(src, shape)}
		if trial%2 == 1 {
			for k := 1 + src.Intn(5); k > 0; k-- {
				boxes = append(boxes, randomBox(src, shape))
			}
		}
		bits := make([]uint64, (shape.NumNodes()+63)/64)
		for _, b := range boxes {
			markPlacement(shape, b, bits)
			if b.Volume() == 1 {
				single++
			}
			for i := range b.Lo {
				if b.Lo[i] == 0 || b.Hi[i] == shape.Radix(i)-1 {
					border++
					break
				}
			}
		}
		var want []grid.NodeID
		for id := grid.NodeID(0); int(id) < shape.NumNodes(); id++ {
			in := slices.ContainsFunc(boxes, func(b grid.Box) bool { return OnPlacement(b, shape.CoordView(id)) })
			if got := bits[id>>6]&(1<<(id&63)) != 0; got != in {
				t.Fatalf("trial %d: shape %v boxes %v: node %v in region = %v, predicate says %v",
					trial, shape, boxes, shape.CoordView(id), got, in)
			}
			if in {
				want = append(want, id)
			}
		}
		if len(boxes) == 1 && !slices.Equal(Placement(shape, boxes[0]), want) {
			t.Fatalf("trial %d: Placement(%v, %v) is not the predicate's set in id order", trial, shape, boxes[0])
		}
	}
	if border < 100 || single < 100 {
		t.Fatalf("draws too tame: %d boxes on the mesh border, %d single-node boxes", border, single)
	}
}

// TestPlacementEnumeratorAllocFree: extending a flood's region allocates
// nothing, in any dimensionality.
func TestPlacementEnumeratorAllocFree(t *testing.T) {
	for _, dims := range [][]int{{16, 16}, {6, 7, 5}, {5, 4, 6, 5}} {
		shape := grid.MustShape(dims...)
		box := grid.NewBox(make(grid.Coord, len(dims)), make(grid.Coord, len(dims)))
		for i := range dims {
			box.Lo[i], box.Hi[i] = 2, 3
		}
		bits := make([]uint64, (shape.NumNodes()+63)/64)
		if n := testing.AllocsPerRun(50, func() { markPlacement(shape, box, bits) }); n != 0 {
			t.Errorf("markPlacement on %v: %v allocs per run, want 0", shape, n)
		}
	}
}

// TestDemotesMatchesPredicates: the fused demotion test is
// InShadow && Trapped for every (w, d) pair of small shapes.
func TestDemotesMatchesPredicates(t *testing.T) {
	src := rng.New(23)
	demoted := 0
	for trial := 0; trial < 60; trial++ {
		dims := 2 + trial%3
		radices := make([]int, dims)
		for i := range radices {
			radices[i] = 2 + src.Intn(7-dims) // at most 6x6, 5x5x5, 4x4x4x4
		}
		shape := grid.MustShape(radices...)
		b := randomBox(src, shape)
		for w := grid.NodeID(0); int(w) < shape.NumNodes(); w++ {
			for d := grid.NodeID(0); int(d) < shape.NumNodes(); d++ {
				wc, dc := shape.CoordView(w), shape.CoordView(d)
				axis, neg, ok := InShadow(b, wc)
				want := ok && Trapped(b, dc, axis, neg)
				if got := Demotes(b, wc, dc); got != want {
					t.Fatalf("shape %v box %v: Demotes(%v, %v) = %v, InShadow && Trapped = %v", shape, b, wc, dc, got, want)
				}
				if want {
					demoted++
				}
			}
		}
	}
	if demoted == 0 {
		t.Fatal("no (w, d) pair was ever demoted: the draws do not exercise the test")
	}
}
