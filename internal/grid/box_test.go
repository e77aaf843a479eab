package grid

import (
	"testing"
	"testing/quick"
)

func mkBox(lo, hi Coord) Box { return Box{Lo: lo, Hi: hi} }

// contains reports whether c lies inside b: in its extent on every axis.
func contains(b Box, c Coord) bool {
	for i, v := range c {
		if !b.ContainsOn(i, v) {
			return false
		}
	}
	return len(c) == b.Dims()
}

// TestBoxContains: ContainsOn on every axis holds exactly the box.
func TestBoxContains(t *testing.T) {
	b := mkBox(Coord{3, 5, 3}, Coord{5, 6, 4})
	if !contains(b, Coord{3, 5, 3}) || !contains(b, Coord{5, 6, 4}) || !contains(b, Coord{4, 5, 4}) {
		t.Error("box must contain its corners and interior")
	}
	for _, c := range []Coord{{2, 5, 3}, {6, 6, 4}, {4, 7, 4}, {4, 5, 5}, {4, 5}} {
		if contains(b, c) {
			t.Errorf("box should not contain %v", c)
		}
	}
	if !b.ContainsOn(0, 4) || b.ContainsOn(0, 6) {
		t.Error("ContainsOn wrong")
	}
}

func TestBoxHullInclude(t *testing.T) {
	a := mkBox(Coord{2, 3}, Coord{4, 5})
	b := mkBox(Coord{0, 4}, Coord{3, 8})
	var h Box
	h.Set(a)
	h.Extend(b)
	if !h.Equal(mkBox(Coord{0, 3}, Coord{4, 8})) {
		t.Errorf("Extend = %v", h)
	}
	var in Box
	in.Set(a)
	in.Include(Coord{7, 1})
	if !in.Equal(mkBox(Coord{2, 1}, Coord{7, 5})) {
		t.Errorf("Include = %v", in)
	}
}

func TestBoxExpand(t *testing.T) {
	b := mkBox(Coord{0, 4}, Coord{2, 6})
	e := b.Expand(1)
	if !e.Equal(Box{Lo: Coord{-1, 3}, Hi: Coord{3, 7}}) {
		t.Errorf("Expand = %v", e)
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
		if !contains(b, c) {
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
	if b.Volume() != 1 || !contains(b, Coord{2, 3}) {
		t.Errorf("BoxAt wrong: %v", b)
	}
}

func TestBoxPropertyExtendCoversBoth(t *testing.T) {
	mk := func(a, b, c, d uint8) Box {
		lo := Coord{int(a % 8), int(b % 8)}
		hi := Coord{lo[0] + int(c%4), lo[1] + int(d%4)}
		return Box{Lo: lo, Hi: hi}
	}
	prop := func(a, b, c, d, e, f, g, h uint8) bool {
		x, y := mk(a, b, c, d), mk(e, f, g, h)
		var hu Box
		hu.Set(x)
		hu.Extend(y)
		return contains(hu, x.Lo) && contains(hu, x.Hi) && contains(hu, y.Lo) && contains(hu, y.Hi)
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
