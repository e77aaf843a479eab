package route

import (
	"slices"
	"testing"
	"unsafe"

	"ndmesh/internal/grid"
	"ndmesh/internal/meshtest"
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
	if got := msg.Used(shape, v); got != want {
		t.Fatalf("Used(v) after re-entry = %b, want %b (the +X tried before the backtrack)", got, want)
	}
	if msg.used != want {
		t.Fatalf("header's cached set = %b, want %b", msg.used, want)
	}
	if got, want := msg.Used(shape, s), grid.DirSet(0).Add(px).Add(py); got != want {
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
	if want = want.Add(my); msg.Cur != v || msg.used != want || msg.Used(shape, v) != want {
		t.Fatalf("after the second departure: cur %d cached %b table %b, want %d %b", msg.Cur, msg.used, msg.Used(shape, v), v, want)
	}
	r.next = []Decision{back}
	AdvanceGated(ctx, r, msg, nil)
	if msg.Cur != at(2, 2) || msg.Incoming != py || msg.Backtracks != 4 {
		t.Fatalf("backtrack out of v: cur %d incoming %v backtracks %d, want %d %v 4", msg.Cur, msg.Incoming, msg.Backtracks, at(2, 2), py)
	}
	if n := len(msg.visits()); n != 4 {
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
		if n := len(msg.visits()); n > len(seen) {
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
	pathCap, tableCap := cap(msg.path), cap(msg.visits())
	if allocs := testing.AllocsPerRun(5, walk); allocs != 0 {
		t.Fatalf("recycled walk allocates %.1f allocs/op, want 0", allocs)
	}
	if msg.Hops != tc.hops || cap(msg.path) != pathCap || cap(msg.visits()) != tableCap {
		t.Fatalf("recycled walk: hops %d (want %d), path cap %d -> %d, table cap %d -> %d",
			msg.Hops, tc.hops, pathCap, cap(msg.path), tableCap, cap(msg.visits()))
	}
}

// TestArenaShares pins the carve: every header gets an empty share of the
// shape's reserve (the power of two at or above the diameter), capped at its
// end, so a walk that outgrows its share moves to a new block instead of
// writing into the next header's, and no table: a header borrows one from
// the free list when it first strays. Shares are carved in order from one
// chunk for the headers the storage was sized for.
func TestArenaShares(t *testing.T) {
	for _, tc := range []struct {
		dims  []int
		share int
	}{{[]int{8, 8}, 16}, {[]int{32, 32}, 64}, {[]int{4, 4, 4}, 16}, {[]int{128, 128}, 256}, {[]int{256, 256}, 512}} {
		tables := NewTables(meshtest.MustShape(tc.dims...), 4)
		var first, second Message
		tables.Carve(&first)
		tables.Carve(&second)
		for _, msg := range []*Message{&first, &second} {
			if len(msg.path) != 0 || cap(msg.path) != tc.share || msg.visits() != nil || msg.tables != &tables {
				t.Fatalf("%v: share path %d/%d table %d/%d, want 0/%d and no table", tc.dims,
					len(msg.path), cap(msg.path), len(msg.visits()), cap(msg.visits()), tc.share)
			}
		}
		if unsafe.Add(unsafe.Pointer(unsafe.SliceData(first.path)), tc.share) != unsafe.Pointer(unsafe.SliceData(second.path)) {
			t.Fatalf("%v: the second share does not follow the first in their chunk", tc.dims)
		}
		second.path = append(second.path, 7)
		for i := 0; i <= tc.share; i++ {
			first.path = append(first.path, 1)
		}
		if second.path[0] != 7 {
			t.Fatalf("%v: the first header's growth overwrote the second's share", tc.dims)
		}
	}
}

// strayWalks script the switch from a header that is only its path stack to
// one with a used-direction table, on a fault-free 6x6 from (1,2) towards
// (5,2): the first stray is a backtrack out of a dead end after three
// compact hops, a spare move, or a backtrack after which the strayed header
// re-enters a node it left while compact.
var strayWalks = []struct {
	name    string
	compact int // forward hops before the first stray
	script  []Decision
}{
	{"backtrack after three hops", 3, []Decision{
		move(px), move(px), move(px), back, move(py), move(px), back, back, back, move(my), back, back}},
	{"spare move", 2, []Decision{
		move(px), move(px), move(py), move(px), back, move(py), back, back, back, move(px)}},
	{"re-entry of a compact node", 2, []Decision{
		move(px), move(px), back, back, move(py), move(px), move(my), move(my), back, back, back, move(mx)}},
}

var (
	px, mx, py, my = grid.DirPlus(0), grid.DirMinus(0), grid.DirPlus(1), grid.DirMinus(1)
	back           = Decision{Backtrack: true}
)

func move(d grid.Dir) Decision { return Decision{Move: true, Dir: d} }

// TestTableMaterializes holds Used, at every node after every step, to the
// map the header used to keep (one Add per committed forward move), and
// the table to that map's first-departure order once it exists: the order
// a table written hop by hop holds, so every later lookup finds the same
// slot. Before the first stray the header must hold no table at all.
func TestTableMaterializes(t *testing.T) {
	for _, tc := range strayWalks {
		ctx, m := env(t, []int{6, 6}, nil)
		shape := m.Shape()
		msg := NewMessage(shape.Index(grid.Coord{1, 2}), shape.Index(grid.Coord{5, 2}))
		shadow := map[grid.NodeID]grid.DirSet{}
		var order []grid.NodeID
		for i, d := range tc.script {
			before, depth := msg.Cur, msg.PathLen()
			if !AdvanceGated(ctx, &scripted{next: []Decision{d}}, msg, nil) {
				t.Fatalf("%s: step %d terminated: %v", tc.name, i, msg)
			}
			if msg.PathLen() == depth+1 {
				if shadow[before] == 0 {
					order = append(order, before)
				}
				shadow[before] = shadow[before].Add(d.Dir)
			}
			if compact := i < tc.compact; compact == msg.strayed || compact && msg.visits() != nil {
				t.Fatalf("%s: step %d: strayed %v with a %d-entry table, want strayed %v", tc.name, i, msg.strayed, len(msg.visits()), !compact)
			}
			for id := grid.NodeID(0); int(id) < m.NumNodes(); id++ {
				if got := msg.Used(shape, id); got != shadow[id] {
					t.Fatalf("%s: step %d: Used(%v) = %b, the map says %b", tc.name, i, shape.CoordOf(id), got, shadow[id])
				}
			}
			if msg.used != shadow[msg.Cur] {
				t.Fatalf("%s: step %d: cached set %b, the map says %b", tc.name, i, msg.used, shadow[msg.Cur])
			}
			if !msg.strayed {
				continue
			}
			if len(msg.visits()) != len(order) {
				t.Fatalf("%s: step %d: table holds %d entries, %d nodes were left", tc.name, i, len(msg.visits()), len(order))
			}
			for j, v := range msg.visits() {
				if v.node != order[j] {
					t.Fatalf("%s: step %d: slot %d holds %v, the %d-th node left is %v", tc.name, i, j, shape.CoordOf(v.node), j, shape.CoordOf(order[j]))
				}
			}
		}
	}
}

// TestTablesRecycle pins the lending: a header borrows its table when it
// first strays, Release hands it back emptied, and the next header to stray
// takes that same pooled table, with its capacity, instead of carving one; a
// header that strays while the table is out gets a table of its own.
func TestTablesRecycle(t *testing.T) {
	ctx, m := env(t, []int{6, 6}, nil)
	shape := m.Shape()
	tables := NewTables(shape, 2)
	var first, second, third Message
	tables.Carve(&first)
	tables.Carve(&second)
	tables.Carve(&third)
	src, dst := shape.Index(grid.Coord{1, 2}), shape.Index(grid.Coord{5, 2})
	walk := func(msg *Message) {
		msg.Reset(src, dst)
		for _, d := range strayWalks[1].script {
			AdvanceGated(ctx, &scripted{next: []Decision{d}}, msg, nil)
		}
	}
	walk(&first)
	if first.visits() == nil || first.table == nil {
		t.Fatalf("a strayed header holds table %v under slot %p, want its own from the pool", first.visits(), first.table)
	}
	slot, entry := first.table, &first.visits()[:1][0]
	first.Release()
	first.Release()
	if first.visits() != nil || first.table != nil || len(*slot) != 0 || &(*slot)[:1][0] != entry {
		t.Fatalf("released header holds %v under slot %p, the slot %v: want none, and the table back empty", first.visits(), first.table, *slot)
	}
	walk(&second)
	if second.table != slot || &second.visits()[:1][0] != entry {
		t.Fatal("the next header to stray did not take the released table")
	}
	walk(&third)
	if third.table == nil || third.table == slot {
		t.Fatal("a header that strayed while the table was out did not get one of its own")
	}
	second.Reset(src, dst)
	if second.visits() == nil || second.table != slot || &second.visits()[:1][0] != entry {
		t.Fatal("Reset dropped the table a header holds")
	}
}

// TestTablesRestack pins the order Restack leaves the tables in once all are
// back: the oldest is lent first, whatever order the headers gave them back
// in, so the next headers to stray take the tables the first ones made.
func TestTablesRestack(t *testing.T) {
	ctx, m := env(t, []int{6, 6}, nil)
	shape := m.Shape()
	tables := NewTables(shape, 3)
	msgs := make([]Message, 3)
	made := make([]*[]visit, len(msgs))
	src, dst := shape.Index(grid.Coord{1, 2}), shape.Index(grid.Coord{5, 2})
	walk := func(msg *Message) {
		msg.Reset(src, dst)
		for _, d := range strayWalks[1].script {
			AdvanceGated(ctx, &scripted{next: []Decision{d}}, msg, nil)
		}
	}
	for i := range msgs {
		tables.Carve(&msgs[i])
		walk(&msgs[i])
		made[i] = msgs[i].table
		if made[i] == nil || slices.Contains(made[:i], made[i]) {
			t.Fatalf("header %d borrowed table %p, want a new one (made before: %v)", i, made[i], made[:i])
		}
	}
	for _, i := range []int{1, 0, 2} {
		msgs[i].Release()
	}
	tables.Restack()
	for i := range msgs {
		walk(&msgs[i])
		if msgs[i].table != made[i] {
			t.Fatalf("after Restack header %d borrowed table %p, want %p, the %d-th made", i, msgs[i].table, made[i], i)
		}
	}
}
