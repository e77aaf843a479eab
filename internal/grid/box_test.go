package grid

import (
	"testing"
	"testing/quick"
)

func mkBox(lo, hi Coord) Box { return NewBox(lo, hi) }

func TestNewBoxValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted box accepted")
		}
	}()
	NewBox(Coord{2, 2}, Coord{1, 3})
}

func TestNewBoxDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched corners accepted")
		}
	}()
	NewBox(Coord{1}, Coord{2, 3})
}

func TestBoxContains(t *testing.T) {
	b := mkBox(Coord{3, 5, 3}, Coord{5, 6, 4})
	if !b.Contains(Coord{3, 5, 3}) || !b.Contains(Coord{5, 6, 4}) || !b.Contains(Coord{4, 5, 4}) {
		t.Error("box must contain its corners and interior")
	}
	for _, c := range []Coord{{2, 5, 3}, {6, 6, 4}, {4, 7, 4}, {4, 5, 5}, {4, 5}} {
		if b.Contains(c) {
			t.Errorf("box should not contain %v", c)
		}
	}
	if !b.ContainsOn(0, 4) || b.ContainsOn(0, 6) {
		t.Error("ContainsOn wrong")
	}
}

func TestBoxIntersect(t *testing.T) {
	a := mkBox(Coord{0, 0}, Coord{4, 4})
	b := mkBox(Coord{4, 4}, Coord{6, 6})
	c := mkBox(Coord{5, 0}, Coord{7, 3})
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("touching boxes must intersect")
	}
	if a.Intersects(c) {
		t.Error("disjoint boxes intersect")
	}
}

func TestBoxHullInclude(t *testing.T) {
	a := mkBox(Coord{2, 3}, Coord{4, 5})
	b := mkBox(Coord{0, 4}, Coord{3, 8})
	h := a.Clone()
	h.Extend(b)
	if !h.Equal(mkBox(Coord{0, 3}, Coord{4, 8})) {
		t.Errorf("Extend = %v", h)
	}
	in := a.Clone()
	in.Include(Coord{7, 1})
	if !in.Equal(mkBox(Coord{2, 1}, Coord{7, 5})) {
		t.Errorf("Include = %v", in)
	}
}

func TestBoxExpandClip(t *testing.T) {
	s := MustShape(10, 10)
	b := mkBox(Coord{0, 4}, Coord{2, 6})
	e := b.Expand(1)
	if !e.Equal(Box{Lo: Coord{-1, 3}, Hi: Coord{3, 7}}) {
		t.Errorf("Expand = %v", e)
	}
	clipped, ok := e.Clip(s)
	if !ok || !clipped.Equal(mkBox(Coord{0, 3}, Coord{3, 7})) {
		t.Errorf("Clip = %v, %v", clipped, ok)
	}
	far := Box{Lo: Coord{12, 12}, Hi: Coord{14, 14}}
	if _, ok := far.Clip(s); ok {
		t.Error("off-mesh box clipped to non-empty")
	}
}

func TestBoxExtentVolume(t *testing.T) {
	b := mkBox(Coord{3, 5, 3}, Coord{5, 6, 4})
	if b.Extent(0) != 3 || b.Extent(1) != 2 || b.Extent(2) != 2 {
		t.Errorf("extents wrong: %v", b)
	}
	if b.MaxExtent() != 3 {
		t.Errorf("MaxExtent = %d", b.MaxExtent())
	}
	if b.Volume() != 12 {
		t.Errorf("Volume = %d", b.Volume())
	}
}

func TestBoxEach(t *testing.T) {
	b := mkBox(Coord{1, 2}, Coord{2, 4})
	var got []Coord
	b.Each(func(c Coord) { got = append(got, c.Clone()) })
	if len(got) != b.Volume() {
		t.Fatalf("Each visited %d nodes, want %d", len(got), b.Volume())
	}
	seen := map[string]bool{}
	for _, c := range got {
		if !b.Contains(c) {
			t.Fatalf("Each visited %v outside box", c)
		}
		if seen[c.String()] {
			t.Fatalf("Each visited %v twice", c)
		}
		seen[c.String()] = true
	}
}

func TestBoxString(t *testing.T) {
	b := mkBox(Coord{3, 5, 3}, Coord{5, 6, 4})
	if got := b.String(); got != "[3:5, 5:6, 3:4]" {
		t.Errorf("String = %q", got)
	}
}

func TestBoxAt(t *testing.T) {
	b := BoxAt(Coord{2, 3})
	if b.Volume() != 1 || !b.Contains(Coord{2, 3}) {
		t.Errorf("BoxAt wrong: %v", b)
	}
}

func TestBoxPropertyIntersectionSymmetric(t *testing.T) {
	mk := func(a, b, c, d uint8) Box {
		lo := Coord{int(a % 8), int(b % 8)}
		hi := Coord{lo[0] + int(c%4), lo[1] + int(d%4)}
		return Box{Lo: lo, Hi: hi}
	}
	prop := func(a, b, c, d, e, f, g, h uint8) bool {
		x, y := mk(a, b, c, d), mk(e, f, g, h)
		if x.Intersects(y) != y.Intersects(x) {
			return false
		}
		// The extended box contains both.
		hu := x.Clone()
		hu.Extend(y)
		return hu.Contains(x.Lo) && hu.Contains(x.Hi) && hu.Contains(y.Lo) && hu.Contains(y.Hi)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxPropertyVolumeMatchesEach(t *testing.T) {
	prop := func(a, b, c, d uint8) bool {
		lo := Coord{int(a % 6), int(b % 6)}
		hi := Coord{lo[0] + int(c%3), lo[1] + int(d%3)}
		box := Box{Lo: lo, Hi: hi}
		count := 0
		box.Each(func(Coord) { count++ })
		return count == box.Volume()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
