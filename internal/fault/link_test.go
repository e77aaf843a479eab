package fault

import (
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/meshtest"
)

func TestLinkFaultPicksInteriorEndpoint(t *testing.T) {
	shape := meshtest.MustShape(10, 10)
	// Link between a near-border node and a deeper node: the deeper one
	// fails (keeping the outermost surface fault-free).
	a := shape.Index(grid.Coord{1, 5})
	b := shape.Index(grid.Coord{2, 5})
	victim, err := LinkFault(shape, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if victim != b {
		t.Fatalf("victim = %v, want the deeper endpoint (2,5)", shape.CoordOf(victim))
	}
	// Order of arguments must not matter.
	victim2, err := LinkFault(shape, b, a)
	if err != nil || victim2 != victim {
		t.Fatalf("LinkFault not symmetric: %v vs %v", victim, victim2)
	}
}

func TestLinkFaultTieBreaksDeterministically(t *testing.T) {
	shape := meshtest.MustShape(10, 10)
	a := shape.Index(grid.Coord{4, 5})
	b := shape.Index(grid.Coord{5, 5})
	// Both are 4 deep: the smaller id wins.
	victim, err := LinkFault(shape, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := a
	if b < a {
		want = b
	}
	if victim != want {
		t.Fatalf("tie break wrong: %v", shape.CoordOf(victim))
	}
}

func TestLinkFaultRejectsNonNeighbors(t *testing.T) {
	shape := meshtest.MustShape(10, 10)
	a := shape.Index(grid.Coord{1, 1})
	b := shape.Index(grid.Coord{3, 1})
	if _, err := LinkFault(shape, a, b); err == nil {
		t.Fatal("non-neighbors accepted")
	}
	if _, err := LinkFault(shape, a, a); err == nil {
		t.Fatal("self link accepted")
	}
}

func TestBorderDistance(t *testing.T) {
	shape := meshtest.MustShape(10, 8)
	cases := []struct {
		c    grid.Coord
		want int
	}{
		{grid.Coord{0, 4}, 0},
		{grid.Coord{1, 4}, 1},
		{grid.Coord{5, 4}, 3}, // y: min(4, 3) = 3
		{grid.Coord{4, 1}, 1},
	}
	for _, tc := range cases {
		if got := borderDistance(shape, shape.Index(tc.c)); got != tc.want {
			t.Errorf("borderDistance(%v) = %d, want %d", tc.c, got, tc.want)
		}
	}
}
