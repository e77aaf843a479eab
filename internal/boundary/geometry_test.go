package boundary

import (
	"slices"
	"testing"

	"ndmesh/internal/frame"
	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
)

// randomShape draws a mixed-radix shape of the given dimensionality, small
// enough to check every node.
func randomShape(src *rng.Source, dims int) *grid.Shape {
	radices := make([]int, dims)
	for i := range radices {
		radices[i] = 3 + src.Intn(9-dims) // 2-D: 3..9, 3-D: 3..8, 4-D: 3..7
	}
	return meshtest.MustShape(radices...)
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
	return meshtest.NewBox(lo, hi)
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
		shape := meshtest.MustShape(dims...)
		box := meshtest.NewBox(make(grid.Coord, len(dims)), make(grid.Coord, len(dims)))
		for i := range dims {
			box.Lo[i], box.Hi[i] = 2, 3
		}
		bits := make([]uint64, (shape.NumNodes()+63)/64)
		if n := testing.AllocsPerRun(50, func() { markPlacement(shape, box, bits) }); n != 0 {
			t.Errorf("markPlacement on %v: %v allocs per run, want 0", shape, n)
		}
	}
}

// TestMarkRun holds the word-at-a-time run to setting its bits one by one,
// over a set that already holds bits on both sides of the run.
func TestMarkRun(t *testing.T) {
	for _, tc := range []struct {
		name     string
		from, to int
	}{
		{"inside one word", 3, 9},
		{"one bit", 70, 70},
		{"across words", 60, 130},
		{"ending on bit 63", 10, 63},
		{"starting on bit 64", 64, 66},
		{"a whole word", 64, 127},
		{"whole words", 0, 191},
		{"empty", 9, 8},
	} {
		got := []uint64{1 << 40, 1 << 2, 1 << 63}
		want := slices.Clone(got)
		markRun(got, tc.from, tc.to)
		for at := tc.from; at <= tc.to; at++ {
			want[at>>6] |= 1 << (at & 63)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: markRun(%d, %d) = %x, want %x", tc.name, tc.from, tc.to, got, want)
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
		shape := meshtest.MustShape(radices...)
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

// eachBox calls fn with every box inside the shape, in one reused Box.
func eachBox(shape *grid.Shape, fn func(grid.Box)) {
	n := shape.Dims()
	b := grid.Box{Lo: make(grid.Coord, n), Hi: make(grid.Coord, n)}
	var axis func(i int)
	axis = func(i int) {
		if i == n {
			fn(b)
			return
		}
		for lo := 0; lo < shape.Radix(i); lo++ {
			for hi := lo; hi < shape.Radix(i); hi++ {
				b.Lo[i], b.Hi[i] = lo, hi
				axis(i + 1)
			}
		}
	}
	axis(0)
}

// checkRecordGeometry deposits box's record at every node of the shape and
// holds each stored record to its definitions: Role is frame.SurfaceDirs,
// Shadow is the steps d whose node+d lies outside the box on exactly one
// axis, and no step outside Shadow is ever demoted, whatever the
// destination. It returns how many (node, step) pairs had a demoted
// destination.
func checkRecordGeometry(t *testing.T, store *info.Store, shape *grid.Shape, box grid.Box) (demoting int) {
	t.Helper()
	store.Clear()
	b := store.Intern(box)
	w := make(grid.Coord, shape.Dims())
	for id := grid.NodeID(0); int(id) < shape.NumNodes(); id++ {
		store.Add(id, info.Record{Block: b, Epoch: 1})
		rec, c := store.At(id)[0], shape.CoordView(id)
		if want := frame.SurfaceDirs(box, c); rec.Role() != want {
			t.Fatalf("%v box %v node %v: Role = %b, SurfaceDirs = %b", shape, box, c, rec.Role(), want)
		}
		for d := grid.Dir(0); int(d) < shape.NumDirs(); d++ {
			copy(w, c)
			w[d.Axis()] += d.Sign()
			outside := 0
			for i := range w {
				if !box.ContainsOn(i, w[i]) {
					outside++
				}
			}
			if has := rec.Shadow().Has(d); has != (outside == 1) {
				t.Fatalf("%v box %v node %v: Shadow().Has(%v) = %v, but node%v lies outside on %d axes",
					shape, box, c, d, has, d, outside)
			}
			for dst := grid.NodeID(0); int(dst) < shape.NumNodes(); dst++ {
				if !Demotes(box, w, shape.CoordView(dst)) {
					continue
				}
				if !rec.Shadow().Has(d) {
					t.Fatalf("%v box %v node %v: step %v onto %v is demoted for destination %v, but the shadow %b lacks it",
						shape, box, c, d, w, shape.CoordView(dst), rec.Shadow())
				}
				demoting++
				break
			}
		}
	}
	return demoting
}

// TestRecordGeometry holds the geometry a record is given at deposit — its
// Definition 2 role and its Section 2.2 shadow — to their definitions, for
// every node and every box (border boxes included) of 1-D to 3-D shapes of
// radix at most 4, and for 32 seeded boxes on 4x4x4x4; and it holds
// the shadow to being all a router needs: a step outside it is never
// demoted.
func TestRecordGeometry(t *testing.T) {
	demoting := 0
	for _, dims := range [][]int{
		{1}, {2}, {3}, {4},
		{2, 2}, {3, 3}, {4, 4}, {2, 4}, {4, 3}, {1, 4},
		{2, 2, 2}, {3, 3, 3}, {4, 4, 4}, {2, 3, 4},
	} {
		shape := meshtest.MustShape(dims...)
		store := info.NewStore(shape)
		eachBox(shape, func(box grid.Box) { demoting += checkRecordGeometry(t, store, shape, box) })
	}
	shape := meshtest.MustShape(4, 4, 4, 4)
	store := info.NewStore(shape)
	src := rng.New(38)
	for range 32 {
		demoting += checkRecordGeometry(t, store, shape, randomBox(src, shape))
	}
	if demoting == 0 {
		t.Fatal("no step was ever demoted: the shapes do not exercise the shadow")
	}
}
