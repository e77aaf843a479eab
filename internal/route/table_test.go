package route

import (
	"testing"

	"ndmesh/internal/grid"
)

// scripted replays a fixed list of decisions, one per Decide call.
type scripted struct{ next []Decision }

func (*scripted) Name() string { return "scripted" }
func (s *scripted) Decide(*Context, *Message) Decision {
	d := s.next[0]
	s.next = s.next[1:]
	return d
}

// TestUsedTableSurvivesReentry pins the semantics the flat table inherited
// from the map it replaced: used directions are keyed by node, not by path
// position. A message that backtracks out of v and later re-enters v from a
// different neighbor must still see what it tried from v before — in Used,
// in the header's cached set, and in the next real decision — and a further
// backtrack into v must see the union.
func TestUsedTableSurvivesReentry(t *testing.T) {
	ctx, m := env(t, []int{5, 5}, nil)
	shape := m.Shape()
	at := func(x, y int) grid.NodeID { return shape.Index(grid.Coord{x, y}) }
	px, py, my := grid.DirPlus(0), grid.DirPlus(1), grid.DirMinus(1)
	move := func(d grid.Dir) Decision { return Decision{Move: true, Dir: d} }
	back := Decision{Backtrack: true}
	s, v := at(1, 1), at(2, 1)

	msg := NewMessage(s, at(4, 1))
	r := &scripted{next: []Decision{
		move(px), move(px), back, back, // s -> v -> (3,1), then all the way back to s
		move(py), move(px), move(my), // s -> (1,2) -> (2,2) -> v: re-entry from above
	}}
	for len(r.next) > 0 {
		if !AdvanceGated(ctx, r, msg, nil) {
			t.Fatalf("terminated mid-script: %v", msg)
		}
	}
	if msg.Cur != v || msg.Incoming != my || msg.PathLen() != 3 {
		t.Fatalf("after re-entry: cur %d incoming %v pathlen %d, want %d %v 3", msg.Cur, msg.Incoming, msg.PathLen(), v, my)
	}
	want := grid.DirSet(0).Add(px)
	if got := msg.Used(v); got != want {
		t.Fatalf("Used(v) after re-entry = %b, want %b (the +X tried before the backtrack)", got, want)
	}
	if msg.used != want {
		t.Fatalf("header's cached set = %b, want %b", msg.used, want)
	}
	if got, want := msg.Used(s), grid.DirSet(0).Add(px).Add(py); got != want {
		t.Fatalf("Used(s) = %b, want %b", got, want)
	}
	// The destination is straight along +X, the one direction v has used:
	// a real router must not take it again.
	if d := (Blind{}).Decide(ctx, msg); !d.Move || d.Dir == px {
		t.Fatalf("blind at re-entered v decided %+v: must move, and not along the used +X", d)
	}
	// Leave v downward and come back: v now remembers both departures, and
	// the backtrack out of v returns to (2,2), the neighbor it was last
	// entered from, not to s.
	r.next = []Decision{move(my), back}
	AdvanceGated(ctx, r, msg, nil)
	AdvanceGated(ctx, r, msg, nil)
	if want = want.Add(my); msg.Cur != v || msg.used != want || msg.Used(v) != want {
		t.Fatalf("after the second departure: cur %d cached %b table %b, want %d %b", msg.Cur, msg.used, msg.Used(v), v, want)
	}
	r.next = []Decision{back}
	AdvanceGated(ctx, r, msg, nil)
	if msg.Cur != at(2, 2) || msg.Incoming != py || msg.Backtracks != 4 {
		t.Fatalf("backtrack out of v: cur %d incoming %v backtracks %d, want %d %v 4", msg.Cur, msg.Incoming, msg.Backtracks, at(2, 2), py)
	}
	if n := len(msg.visited); n != 4 {
		t.Fatalf("table holds %d entries, want one per node left by a forward move (s, v, (1,2), (2,2))", n)
	}
}

// longWalks are blind searches on 32x32 that visit hundreds of distinct
// nodes: one around a wall that spans the mesh but for its border rows, one
// for a destination sealed inside a ring of faults (the search exhausts
// everything reachable and gives up). Hops and backtracks were recorded with
// the map-backed header, so the linear table can neither change a walk nor
// grow beyond one entry per node.
var longWalks = []struct {
	name                       string
	faults                     func() []grid.Coord
	dst                        grid.Coord
	arrived                    bool
	hops, backtracks, distinct int
}{
	{"wall", func() (fs []grid.Coord) {
		for y := 1; y <= 30; y++ {
			fs = append(fs, grid.Coord{16, y})
		}
		return fs
	}, grid.Coord{30, 15}, true, 599, 15, 196},
	{"sealed", func() (fs []grid.Coord) {
		for x := 20; x <= 28; x++ {
			fs = append(fs, grid.Coord{x, 10}, grid.Coord{x, 20})
		}
		for y := 11; y <= 19; y++ {
			fs = append(fs, grid.Coord{20, y}, grid.Coord{28, y})
		}
		return fs
	}, grid.Coord{24, 15}, false, 7064, 3532, 925},
}

func TestBlindLongWalkPinned(t *testing.T) {
	for _, tc := range longWalks {
		ctx, m := env(t, []int{32, 32}, tc.faults())
		msg := NewMessage(m.Shape().Index(grid.Coord{1, 15}), m.Shape().Index(tc.dst))
		seen := map[grid.NodeID]bool{}
		for i := 0; i < 20000 && !msg.Done(); i++ {
			seen[msg.Cur] = true
			AdvanceGated(ctx, Blind{}, msg, nil)
		}
		if msg.Arrived != tc.arrived || msg.Unreachable == tc.arrived ||
			msg.Hops != tc.hops || msg.Backtracks != tc.backtracks || len(seen) != tc.distinct {
			t.Errorf("%s: %v over %d distinct nodes, want arrived=%v hops=%d backtracks=%d distinct=%d",
				tc.name, msg, len(seen), tc.arrived, tc.hops, tc.backtracks, tc.distinct)
		}
		if n := len(msg.visited); n > len(seen) {
			t.Errorf("%s: table grew to %d entries over %d distinct nodes", tc.name, n, len(seen))
		}
	}
}

// TestRecycledMessageAllocFree covers the growth path of the header's
// table and path stack: once a message has made the sealed-destination walk
// (925 table entries, thousands of pushes, pops and re-entries), a Reset
// keeps both capacities and the whole walk repeats without one allocation.
func TestRecycledMessageAllocFree(t *testing.T) {
	tc := longWalks[1]
	ctx, m := env(t, []int{32, 32}, tc.faults())
	src, dst := m.Shape().Index(grid.Coord{1, 15}), m.Shape().Index(tc.dst)
	msg := NewMessage(src, dst)
	walk := func() {
		msg.Reset(src, dst)
		for AdvanceGated(ctx, Blind{}, msg, nil) {
		}
	}
	walk()
	pathCap, tableCap := cap(msg.path), cap(msg.visited)
	if allocs := testing.AllocsPerRun(5, walk); allocs != 0 {
		t.Fatalf("recycled walk allocates %.1f allocs/op, want 0", allocs)
	}
	if msg.Hops != tc.hops || cap(msg.path) != pathCap || cap(msg.visited) != tableCap {
		t.Fatalf("recycled walk: hops %d (want %d), path cap %d -> %d, table cap %d -> %d",
			msg.Hops, tc.hops, pathCap, cap(msg.path), tableCap, cap(msg.visited))
	}
}

// TestArenaShares pins the carve: every header gets an empty share of the
// shape's reserve (the power of two at or above the diameter, at most 64),
// capped at its end, so a walk that outgrows its share reallocates instead
// of writing into the next header's.
func TestArenaShares(t *testing.T) {
	for _, tc := range []struct {
		dims  []int
		share int
	}{{[]int{8, 8}, 16}, {[]int{32, 32}, 64}, {[]int{4, 4, 4}, 16}, {[]int{128, 128}, 64}} {
		a := NewArena(grid.MustShape(tc.dims...), 2)
		var first, second Message
		a.Carve(&first)
		a.Carve(&second)
		for _, msg := range []*Message{&first, &second} {
			if len(msg.path) != 0 || cap(msg.path) != tc.share || len(msg.visited) != 0 || cap(msg.visited) != tc.share {
				t.Fatalf("%v: share path %d/%d table %d/%d, want 0/%d", tc.dims,
					len(msg.path), cap(msg.path), len(msg.visited), cap(msg.visited), tc.share)
			}
		}
		second.path = append(second.path, hop{slot: 7})
		second.visited = append(second.visited, visit{node: 7})
		for i := 0; i <= tc.share; i++ {
			first.path = append(first.path, hop{slot: -1})
			first.visited = append(first.visited, visit{node: -1})
		}
		if second.path[0].slot != 7 || second.visited[0].node != 7 {
			t.Fatalf("%v: the first header's growth overwrote the second's share", tc.dims)
		}
	}
}
