package grid

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// mustShape is NewShape but fails loudly: the shapes here are constants.
func mustShape(dims ...int) *Shape {
	s, err := NewShape(dims...)
	if err != nil {
		panic(err)
	}
	return s
}

func TestCoordBasics(t *testing.T) {
	c := Coord{3, 5, 4}
	d := c.Clone()
	if !c.Equal(d) {
		t.Fatalf("clone not equal: %v vs %v", c, d)
	}
	d[0] = 9
	if c[0] == 9 {
		t.Fatal("clone aliases original")
	}
	if c.Equal(Coord{3, 5}) {
		t.Fatal("coords of different length compare equal")
	}
	if got := c.String(); got != "(3,5,4)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestManhattan(t *testing.T) {
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{0, 0}, 0},
		{Coord{1, 2}, Coord{4, 6}, 7},
		{Coord{5, 5, 5}, Coord{2, 8, 5}, 6},
		{Coord{9}, Coord{0}, 9},
	}
	for _, c := range cases {
		if got := Manhattan(c.a, c.b); got != c.want {
			t.Errorf("Manhattan(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Manhattan(c.b, c.a); got != c.want {
			t.Errorf("Manhattan not symmetric for %v,%v", c.a, c.b)
		}
	}
}

func TestManhattanPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Manhattan(Coord{1, 2}, Coord{1, 2, 3})
}

func TestDirEncoding(t *testing.T) {
	for axis := 0; axis < 5; axis++ {
		p, m := DirPlus(axis), DirMinus(axis)
		if p.Axis() != axis || m.Axis() != axis {
			t.Fatalf("axis roundtrip failed for %d", axis)
		}
		if !p.Positive() || m.Positive() {
			t.Fatalf("sign wrong for axis %d", axis)
		}
		if p.Sign() != 1 || m.Sign() != -1 {
			t.Fatalf("Sign wrong for axis %d", axis)
		}
		if p.Opposite() != m || m.Opposite() != p {
			t.Fatalf("Opposite wrong for axis %d", axis)
		}
	}
	if InvalidDir.Opposite() != InvalidDir {
		t.Fatal("Opposite of InvalidDir must be InvalidDir")
	}
	names := map[Dir]string{
		DirPlus(0): "+X", DirMinus(0): "-X",
		DirPlus(1): "+Y", DirMinus(1): "-Y",
		DirPlus(2): "+Z", DirMinus(2): "-Z",
		DirPlus(3): "+d3", DirMinus(4): "-d4",
		InvalidDir: "none",
	}
	for d, want := range names {
		if got := d.String(); got != want {
			t.Errorf("Dir(%d).String() = %q, want %q", d, got, want)
		}
	}
}

func TestDirSet(t *testing.T) {
	var s DirSet
	if s.Has(DirPlus(0)) {
		t.Fatal("empty set has +X")
	}
	s = s.Add(DirPlus(0)).Add(DirMinus(2))
	if !s.Has(DirPlus(0)) || !s.Has(DirMinus(2)) || s.Has(DirPlus(2)) {
		t.Fatalf("membership wrong: %b", s)
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
	s = s.Remove(DirPlus(0))
	if s.Has(DirPlus(0)) || s.Count() != 1 {
		t.Fatalf("Remove failed: %b", s)
	}
	if s.Has(InvalidDir) {
		t.Fatal("set must not contain InvalidDir")
	}
}

// TestDirSetWalk: the r.First() / r &= r-1 walk visits exactly the members,
// in ascending order, Count of them — for every subset of a 3-D mesh's six
// directions and for the two extreme directions of a 16-D one.
func TestDirSetWalk(t *testing.T) {
	sets := []DirSet{1 << 31, 1<<31 | 1, ^DirSet(0)}
	for s := DirSet(0); s < 1<<6; s++ {
		sets = append(sets, s)
	}
	for _, s := range sets {
		var want []Dir
		for d := Dir(0); d < 32; d++ {
			if s.Has(d) {
				want = append(want, d)
			}
		}
		var got []Dir
		for r := s; r != 0; r &= r - 1 {
			got = append(got, r.First())
		}
		if len(got) != len(want) || s.Count() != len(want) {
			t.Fatalf("%b: walk visits %v, Count %d, members %v", s, got, s.Count(), want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%b: walk visits %v, members %v", s, got, want)
			}
		}
	}
}

func TestNewShapeValidation(t *testing.T) {
	if _, err := NewShape(); err == nil {
		t.Error("empty shape accepted")
	}
	if _, err := NewShape(4, 0); err == nil {
		t.Error("zero radix accepted")
	}
	if _, err := NewShape(1<<16, 1<<16); err == nil {
		t.Error("overflowing shape accepted")
	}
	dims := make([]int, 17)
	for i := range dims {
		dims[i] = 2
	}
	if _, err := NewShape(dims...); err == nil {
		t.Error("17-dimensional shape accepted")
	}
}

// TestShapeStringLabel holds String to the text it rendered when it
// formatted the radices on every call, on 1-D to 4-D shapes, and to
// allocating nothing now that NewShape builds the label.
func TestShapeStringLabel(t *testing.T) {
	for _, dims := range [][]int{{7}, {1, 12}, {8, 8}, {6, 6, 6}, {10, 1, 3}, {2, 3, 4, 5}, {128, 128}} {
		s := mustShape(dims...)
		parts := make([]string, len(dims))
		for i, k := range dims {
			parts[i] = fmt.Sprintf("%d", k)
		}
		if want := strings.Join(parts, "x") + " mesh"; s.String() != want {
			t.Errorf("%v: String() = %q, want %q", dims, s.String(), want)
		}
		var label string
		if n := testing.AllocsPerRun(10, func() { label = s.String() }); n != 0 || label == "" {
			t.Errorf("%v: String allocates %v times (label %q)", dims, n, label)
		}
	}
}

func TestShapeBasics(t *testing.T) {
	s := mustShape(4, 5, 6)
	if s.Dims() != 3 || s.NumNodes() != 120 || s.NumDirs() != 6 {
		t.Fatalf("basic shape properties wrong: %v", s)
	}
	if s.Diameter() != 3+4+5 {
		t.Fatalf("Diameter = %d", s.Diameter())
	}
	if got := s.String(); got != "4x5x6 mesh" {
		t.Fatalf("String = %q", got)
	}
	u, err := NewShape(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumNodes() != 512 || u.Diameter() != 21 {
		t.Fatalf("uniform 8-ary 3-D mesh wrong: N=%d diam=%d", u.NumNodes(), u.Diameter())
	}
}

func TestIndexCoordRoundtrip(t *testing.T) {
	s := mustShape(3, 4, 5)
	seen := make(map[NodeID]bool)
	for x := 0; x < 3; x++ {
		for y := 0; y < 4; y++ {
			for z := 0; z < 5; z++ {
				c := Coord{x, y, z}
				id := s.Index(c)
				if seen[id] {
					t.Fatalf("duplicate id %d for %v", id, c)
				}
				seen[id] = true
				if got := s.CoordOf(id); !got.Equal(c) {
					t.Fatalf("roundtrip %v -> %d -> %v", c, id, got)
				}
				for axis := 0; axis < 3; axis++ {
					if got := s.Component(id, axis); got != c[axis] {
						t.Fatalf("Component(%d,%d) = %d, want %d", id, axis, got, c[axis])
					}
				}
			}
		}
	}
	if len(seen) != s.NumNodes() {
		t.Fatalf("ids not dense: %d of %d", len(seen), s.NumNodes())
	}
}

func TestIndexPanics(t *testing.T) {
	s := mustShape(3, 3)
	for _, c := range []Coord{{3, 0}, {0, -1}, {1, 1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Index(%v) did not panic", c)
				}
			}()
			s.Index(c)
		}()
	}
}

func TestNeighbor(t *testing.T) {
	s := mustShape(3, 3)
	mid := s.Index(Coord{1, 1})
	wants := map[Dir]Coord{
		DirPlus(0):  {2, 1},
		DirMinus(0): {0, 1},
		DirPlus(1):  {1, 2},
		DirMinus(1): {1, 0},
	}
	for d, want := range wants {
		if got := s.Neighbor(mid, d); got != s.Index(want) {
			t.Errorf("Neighbor(mid,%v) = %v, want %v", d, s.CoordOf(got), want)
		}
	}
	// Border nodes lose neighbors (no wraparound: a mesh, not a torus).
	corner := s.Index(Coord{0, 0})
	if s.Neighbor(corner, DirMinus(0)) != InvalidNode || s.Neighbor(corner, DirMinus(1)) != InvalidNode {
		t.Error("corner has neighbors off-mesh")
	}
	far := s.Index(Coord{2, 2})
	if s.Neighbor(far, DirPlus(0)) != InvalidNode || s.Neighbor(far, DirPlus(1)) != InvalidNode {
		t.Error("far corner has neighbors off-mesh")
	}
}

func TestNeighborAdjacencyProperty(t *testing.T) {
	// Two nodes are neighbors iff their Manhattan distance is exactly 1.
	s := mustShape(4, 3, 3)
	n := s.NumNodes()
	for a := 0; a < n; a++ {
		count := 0
		for d := 0; d < s.NumDirs(); d++ {
			nb := s.Neighbor(NodeID(a), Dir(d))
			if nb == InvalidNode {
				continue
			}
			count++
			if s.Distance(NodeID(a), nb) != 1 {
				t.Fatalf("neighbor at distance != 1: %d -> %d", a, nb)
			}
			// Symmetry: the reverse hop returns.
			if s.Neighbor(nb, Dir(d).Opposite()) != NodeID(a) {
				t.Fatalf("neighbor not symmetric: %d -%v-> %d", a, Dir(d), nb)
			}
		}
		// Interior nodes have degree 2n (Section 2.1).
		if !s.OnBorder(NodeID(a)) && count != s.NumDirs() {
			t.Fatalf("interior node %d has degree %d", a, count)
		}
	}
}

func TestOnBorder(t *testing.T) {
	s := mustShape(4, 4)
	if !s.OnBorder(s.Index(Coord{0, 2})) || !s.OnBorder(s.Index(Coord{3, 1})) {
		t.Error("border node not detected")
	}
	if s.OnBorder(s.Index(Coord{1, 2})) {
		t.Error("interior node flagged as border")
	}
}

func TestPreferredDirs(t *testing.T) {
	s := mustShape(8, 8, 8)
	u := s.Index(Coord{4, 4, 4})
	cases := []struct {
		d    Coord
		want []Dir
	}{
		{Coord{6, 4, 4}, []Dir{DirPlus(0)}},
		{Coord{2, 4, 4}, []Dir{DirMinus(0)}},
		{Coord{6, 2, 4}, []Dir{DirPlus(0), DirMinus(1)}},
		{Coord{4, 4, 4}, nil},
		{Coord{0, 7, 0}, []Dir{DirMinus(0), DirPlus(1), DirMinus(2)}},
	}
	for _, c := range cases {
		got := s.PreferredDirs(u, s.Index(c.d), nil)
		if len(got) != len(c.want) {
			t.Errorf("PreferredDirs to %v = %v, want %v", c.d, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("PreferredDirs to %v = %v, want %v", c.d, got, c.want)
			}
		}
	}
}

func TestPreferredDirsReduceDistance(t *testing.T) {
	// Property: every preferred direction reduces distance by exactly 1,
	// and the number of preferred directions is the number of axes with a
	// non-zero offset.
	s := mustShape(5, 6, 4)
	prop := func(a, b uint32) bool {
		u := NodeID(int(a) % s.NumNodes())
		d := NodeID(int(b) % s.NumNodes())
		dirs := s.PreferredDirs(u, d, nil)
		offAxes := 0
		for axis := 0; axis < s.Dims(); axis++ {
			if s.Component(u, axis) != s.Component(d, axis) {
				offAxes++
			}
		}
		if len(dirs) != offAxes {
			return false
		}
		for _, dir := range dirs {
			nb := s.Neighbor(u, dir)
			if nb == InvalidNode || s.Distance(nb, d) != s.Distance(u, d)-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceMatchesManhattan(t *testing.T) {
	s := mustShape(5, 4, 3, 2)
	prop := func(a, b uint32) bool {
		u := NodeID(int(a) % s.NumNodes())
		v := NodeID(int(b) % s.NumNodes())
		return s.Distance(u, v) == Manhattan(s.CoordOf(u), s.CoordOf(v))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDistanceMatchesComponents: Distance reads the coordinate table; the
// per-axis divmod of Component is the independent reference, over every pair
// of nodes of mixed-radix 1-D to 5-D shapes.
func TestDistanceMatchesComponents(t *testing.T) {
	for _, dims := range [][]int{{9}, {5, 3}, {4, 6, 3}, {5, 4, 3, 2}, {2, 3, 2, 4, 3}} {
		s := mustShape(dims...)
		for u := NodeID(0); int(u) < s.NumNodes(); u++ {
			for v := NodeID(0); int(v) < s.NumNodes(); v++ {
				want := 0
				for axis := range dims {
					want += abs(s.Component(u, axis) - s.Component(v, axis))
				}
				if got := s.Distance(u, v); got != want {
					t.Fatalf("%v: Distance(%d, %d) = %d, components say %d", dims, u, v, got, want)
				}
			}
		}
	}
}

// TestCoordViewMatchesDecode: the coordinate table NewShape builds is the
// divmod decode of every id (Component is the independent per-axis divmod),
// and linearizes back to the id.
func TestCoordViewMatchesDecode(t *testing.T) {
	for _, dims := range [][]int{{7}, {4, 6, 3}, {2, 2, 2, 2, 2}} {
		s := mustShape(dims...)
		for id := NodeID(0); int(id) < s.NumNodes(); id++ {
			c := s.CoordView(id)
			if len(c) != len(dims) || cap(c) != len(dims) {
				t.Fatalf("%v: CoordView(%d) has len %d cap %d, want %d", dims, id, len(c), cap(c), len(dims))
			}
			for axis := range dims {
				if c[axis] != s.Component(id, axis) {
					t.Fatalf("%v: CoordView(%d)[%d] = %d, decode %d", dims, id, axis, c[axis], s.Component(id, axis))
				}
			}
			if s.Index(c) != id {
				t.Fatalf("%v: Index(CoordView(%d)) = %d", dims, id, s.Index(c))
			}
			if cp := s.CoordOf(id); !cp.Equal(c) || &cp[0] == &c[0] {
				t.Fatalf("%v: CoordOf(%d) = %v is not a fresh copy of the view %v", dims, id, cp, c)
			}
		}
	}
}
