package info

import (
	"slices"
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
)

func mkBox(lo, hi grid.Coord) grid.Box { return meshtest.NewBox(lo, hi) }

// rec interns box (the test stays a holder, as a watch would) and returns its
// record at the given epoch.
func rec(s *Store, box grid.Box, epoch uint32) Record {
	return Record{Block: s.Intern(box), Epoch: epoch}
}

// hasBox reports whether node id holds a record of exactly this box.
func hasBox(s *Store, id grid.NodeID, box grid.Box) bool {
	b, ok := s.Find(box)
	return ok && s.Has(id, b)
}

func TestAddAndHas(t *testing.T) {
	s := NewStore(meshtest.MustShape(10, 10))
	b := mkBox(grid.Coord{2, 2}, grid.Coord{3, 3})
	if hasBox(s, 1, b) {
		t.Fatal("empty store has record")
	}
	if !s.Add(1, rec(s, b, 1)) {
		t.Fatal("first Add returned false")
	}
	if !hasBox(s, 1, b) || s.TotalRecords() != 1 || s.NodesWithInfo() != 1 {
		t.Fatal("record not stored")
	}
	// Duplicate add refreshes the epoch but reports no change.
	if s.Add(1, rec(s, b, 3)) {
		t.Fatal("duplicate Add returned true")
	}
	if got := s.At(1)[0].Epoch; got != 3 {
		t.Fatalf("epoch not refreshed: %d", got)
	}
	// An older duplicate does not downgrade.
	s.Add(1, rec(s, b, 2))
	if got := s.At(1)[0].Epoch; got != 3 {
		t.Fatalf("epoch downgraded: %d", got)
	}
}

func TestAddDominatedReplacement(t *testing.T) {
	s := NewStore(meshtest.MustShape(10, 10))
	small := mkBox(grid.Coord{2, 2}, grid.Coord{3, 3})
	big := mkBox(grid.Coord{1, 1}, grid.Coord{4, 4})
	s.Add(5, rec(s, small, 1))
	// A newer record whose box contains the old one replaces it: the block
	// grew and the stale pre-growth record must not linger.
	s.Add(5, rec(s, big, 2))
	if hasBox(s, 5, small) {
		t.Fatal("dominated stale record survived")
	}
	if !hasBox(s, 5, big) || s.TotalRecords() != 1 {
		t.Fatal("new record missing")
	}

	// A newer record does NOT replace a contained record with a newer or
	// equal epoch (two genuinely distinct blocks).
	s2 := NewStore(meshtest.MustShape(10, 10))
	s2.Add(5, rec(s2, small, 7))
	s2.Add(5, rec(s2, big, 7))
	if !hasBox(s2, 5, small) || !hasBox(s2, 5, big) {
		t.Fatal("same-epoch contained record must survive")
	}
}

func TestAddDistinctBlocks(t *testing.T) {
	s := NewStore(meshtest.MustShape(10, 10))
	a := mkBox(grid.Coord{1, 1}, grid.Coord{2, 2})
	b := mkBox(grid.Coord{5, 5}, grid.Coord{6, 6})
	s.Add(0, rec(s, a, 1))
	s.Add(0, rec(s, b, 2))
	if !hasBox(s, 0, a) || !hasBox(s, 0, b) || s.TotalRecords() != 2 {
		t.Fatal("distinct records must coexist")
	}
}

func TestRemoveEpochGuard(t *testing.T) {
	s := NewStore(meshtest.MustShape(10, 10))
	b := mkBox(grid.Coord{2, 2}, grid.Coord{3, 3})
	id := s.Intern(b)
	s.Add(1, Record{Block: id, Epoch: 5})
	// A cancellation with minEpoch <= record epoch must not remove it
	// (the record is newer than the construction being cancelled).
	if s.Remove(1, id, 5) {
		t.Fatal("Remove deleted a same-epoch record")
	}
	if !hasBox(s, 1, b) {
		t.Fatal("record vanished")
	}
	// A cancellation strictly newer removes it.
	if !s.Remove(1, id, 6) {
		t.Fatal("Remove failed")
	}
	if hasBox(s, 1, b) || s.TotalRecords() != 0 {
		t.Fatal("record not removed")
	}
	// Removing again reports false.
	if s.Remove(1, id, 6) {
		t.Fatal("double remove returned true")
	}
}

func TestClear(t *testing.T) {
	s := NewStore(meshtest.MustShape(4, 4))
	b := mkBox(grid.Coord{0, 0}, grid.Coord{1, 1})
	s.Add(0, rec(s, b, 1))
	s.Add(1, rec(s, b, 1))
	s.Clear()
	if s.TotalRecords() != 0 || s.NodesWithInfo() != 0 || len(s.At(0)) != 0 || s.Blocks() != 0 {
		t.Fatal("Clear incomplete")
	}
}

func TestTotalAcrossNodes(t *testing.T) {
	s := NewStore(meshtest.MustShape(8, 8))
	b := mkBox(grid.Coord{0, 0}, grid.Coord{1, 1})
	for id := 0; id < 5; id++ {
		s.Add(grid.NodeID(id), rec(s, b, 1))
	}
	if s.TotalRecords() != 5 || s.NodesWithInfo() != 5 {
		t.Fatalf("totals wrong: %d records, %d nodes", s.TotalRecords(), s.NodesWithInfo())
	}
}

// TestBoxTableRecyclesIDs pins the table's lifetime rule: an id lives while
// anyone holds it (the interner, each record), equal boxes share it, and the
// slot of a fully released id is reused by the next new box.
func TestBoxTableRecyclesIDs(t *testing.T) {
	s := NewStore(meshtest.MustShape(4, 4))
	a, b := mkBox(grid.Coord{1, 1}, grid.Coord{2, 2}), mkBox(grid.Coord{5, 5}, grid.Coord{6, 7})
	ia, ib := s.Intern(a), s.Intern(b)
	if again := s.Intern(a); again != ia || ia == ib || s.Blocks() != 2 {
		t.Fatalf("Intern(a) twice = %d, %d; Intern(b) = %d; %d blocks", ia, again, ib, s.Blocks())
	}
	s.Release(ia)
	s.Add(0, Record{Block: ia, Epoch: 1})
	s.Release(ia) // the record is now a's only holder
	if !s.Box(ia).Equal(a) || !s.Box(ib).Equal(b) || s.Blocks() != 2 {
		t.Fatalf("table = %v, %v (%d blocks)", s.Box(ia), s.Box(ib), s.Blocks())
	}
	s.Remove(0, ia, 2)
	if _, ok := s.Find(a); ok || s.Blocks() != 1 {
		t.Fatalf("a still named after its last holder let go (%d blocks)", s.Blocks())
	}
	c := mkBox(grid.Coord{0, 3}, grid.Coord{0, 3})
	if ic := s.Intern(c); ic != ia || !s.Box(ic).Equal(c) || !s.Box(ib).Equal(b) {
		t.Fatalf("Intern(c) = %d showing %v, want recycled slot %d; b shows %v", ic, s.Box(ic), ia, s.Box(ib))
	}
	// A dominated record lets go of its block too.
	s.Add(1, Record{Block: ib, Epoch: 1})
	s.Release(ib)
	big := s.Intern(mkBox(grid.Coord{4, 4}, grid.Coord{7, 7}))
	s.Add(1, Record{Block: big, Epoch: 2})
	if _, ok := s.Find(b); ok || s.Blocks() != 2 {
		t.Fatalf("dominated block still named (%d blocks)", s.Blocks())
	}
}

// TestStoreVersion pins when the store's version advances: on every Add and
// Remove that changes a node's records and on every Clear — and not on an
// Add that only refreshes an epoch or a Remove that finds nothing to remove.
func TestStoreVersion(t *testing.T) {
	s := NewStore(meshtest.MustShape(4, 4))
	small := mkBox(grid.Coord{2, 2}, grid.Coord{2, 2})
	big := mkBox(grid.Coord{1, 1}, grid.Coord{3, 3})
	sb := rec(s, small, 1)
	steps := []struct {
		name    string
		change  func() bool
		changed bool
	}{
		{"add", func() bool { return s.Add(0, sb) }, true},
		{"epoch-only add", func() bool { return s.Add(0, Record{Block: sb.Block, Epoch: 2}) }, false},
		{"add elsewhere", func() bool { return s.Add(1, sb) }, true},
		{"add replacing a contained record", func() bool { return s.Add(0, rec(s, big, 5)) }, true},
		{"remove guarded by epoch", func() bool { return s.Remove(1, sb.Block, 1) }, false},
		{"remove", func() bool { return s.Remove(1, sb.Block, 2) }, true},
		{"remove of nothing", func() bool { return s.Remove(2, sb.Block, 9) }, false},
		{"clear", func() bool { s.Clear(); return true }, true},
		{"clear of nothing", func() bool { s.Clear(); return true }, true},
	}
	for _, st := range steps {
		before := s.Version()
		if got := st.change(); got != st.changed {
			t.Fatalf("%s: reported %v, want %v", st.name, got, st.changed)
		}
		if moved := s.Version() != before; moved != st.changed {
			t.Errorf("%s: version %d -> %d, want moved=%v", st.name, before, s.Version(), st.changed)
		}
		if s.Version() < before {
			t.Errorf("%s: version rewound %d -> %d", st.name, before, s.Version())
		}
	}
}

// storeOp is one step of a differential run: an Add of box's record at an
// epoch, a Remove of box's record below an epoch, or a Clear.
type storeOp struct {
	kind  int // 0 Add, 1 Remove, 2 Clear
	node  grid.NodeID
	box   int
	epoch uint32
}

// refStore is the store's reference: one plain []Record per node, grown by
// append, with Add and Remove as the Store documents them.
type refStore struct {
	recs  [][]Record
	total int
}

func (r *refStore) add(s *Store, id grid.NodeID, rec Record) bool {
	rs := r.recs[id]
	for i := range rs {
		if rs[i].Block == rec.Block {
			rs[i].Epoch = max(rs[i].Epoch, rec.Epoch)
			return false
		}
	}
	box := s.Box(rec.Block)
	var kept []Record
	for _, x := range rs {
		if x.Epoch < rec.Epoch && contained(s.Box(x.Block), box) {
			r.total--
			continue
		}
		kept = append(kept, x)
	}
	rec.role, rec.shadow = geometry(box, s.shape.CoordView(id))
	r.recs[id] = append(kept, rec)
	r.total++
	return true
}

func (r *refStore) remove(id grid.NodeID, b BlockID, minEpoch uint32) bool {
	rs := r.recs[id]
	for i := range rs {
		if rs[i].Block == b && rs[i].Epoch < minEpoch {
			rs[i] = rs[len(rs)-1]
			r.recs[id] = rs[:len(rs)-1]
			r.total--
			return true
		}
	}
	return false
}

// storeOps draws a run of n operations on a 6x6 mesh over boxes: mostly
// Adds at rising epochs, a third as many Removes, and a rare Clear.
func storeOps(seed uint64, n, boxes int) []storeOp {
	r := rng.New(seed)
	ops := make([]storeOp, n)
	for i := range ops {
		op := storeOp{node: grid.NodeID(r.Intn(36)), box: r.Intn(boxes), epoch: uint32(i/8 + r.Intn(4))}
		switch k := r.Intn(100); {
		case k == 0:
			op.kind = 2
		case k < 25:
			op.kind = 1
		}
		ops[i] = op
	}
	return ops
}

// diffBoxes are the blocks of the differential runs: nested, overlapping
// and disjoint boxes of a 6x6 mesh, so Adds replace contained records.
var diffBoxes = []grid.Box{
	mkBox(grid.Coord{2, 2}, grid.Coord{2, 2}),
	mkBox(grid.Coord{2, 2}, grid.Coord{3, 2}),
	mkBox(grid.Coord{1, 1}, grid.Coord{3, 3}),
	mkBox(grid.Coord{1, 1}, grid.Coord{4, 4}),
	mkBox(grid.Coord{4, 1}, grid.Coord{4, 2}),
	mkBox(grid.Coord{0, 4}, grid.Coord{1, 5}),
	mkBox(grid.Coord{3, 4}, grid.Coord{5, 5}),
}

// run applies ops to s (and to ref, when given, comparing after every
// operation), interning every box first and again after each Clear.
func run(t *testing.T, s *Store, ref *refStore, ops []storeOp, ids []BlockID) {
	intern := func() {
		for k, b := range diffBoxes {
			ids[k] = s.Intern(b)
		}
	}
	intern()
	for i, op := range ops {
		var got, want bool
		switch op.kind {
		case 0:
			rec := Record{Block: ids[op.box], Epoch: op.epoch}
			got = s.Add(op.node, rec)
			if ref != nil {
				want = ref.add(s, op.node, rec)
			}
		case 1:
			got = s.Remove(op.node, ids[op.box], op.epoch)
			if ref != nil {
				want = ref.remove(op.node, ids[op.box], op.epoch)
			}
		case 2:
			s.Clear()
			if ref != nil {
				clear(ref.recs)
				ref.total = 0
			}
			intern()
		}
		if ref == nil {
			continue
		}
		if got != want || s.TotalRecords() != ref.total {
			t.Fatalf("op %d %+v: returned %v, total %d; the reference %v, %d", i, op, got, s.TotalRecords(), want, ref.total)
		}
		for id := range ref.recs {
			if g, w := s.At(grid.NodeID(id)), ref.recs[id]; !slices.Equal(g, w) {
				t.Fatalf("op %d %+v: node %d holds %v, the reference %v", i, op, id, g, w)
			}
		}
	}
}

// TestStoreMatchesReference drives the store and a plain [][]Record through
// the same random Add/Remove/Clear runs and requires the same records, in
// the same order, at every node after every operation — the order routing
// ties and the history digests read. A rerun after Clear, which finds every
// list's block where the first run left it, allocates nothing.
func TestStoreMatchesReference(t *testing.T) {
	shape := meshtest.MustShape(6, 6)
	ids := make([]BlockID, len(diffBoxes))
	for seed := uint64(1); seed <= 60; seed++ {
		ops := storeOps(seed, 600, len(diffBoxes))
		s := NewStore(shape)
		run(t, s, &refStore{recs: make([][]Record, shape.NumNodes())}, ops, ids)
		if n := testing.AllocsPerRun(2, func() {
			s.Clear()
			run(t, s, nil, ops, ids)
		}); n != 0 {
			t.Fatalf("seed %d: a rerun after Clear allocates %v times", seed, n)
		}
	}
}
