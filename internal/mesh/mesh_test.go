package mesh

import (
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/rng"
)

// mustShape is grid.NewShape but fails loudly: the shapes here are
// constants.
func mustShape(dims ...int) *grid.Shape {
	s, err := grid.NewShape(dims...)
	if err != nil {
		panic(err)
	}
	return s
}

func TestStatusStringsAndBad(t *testing.T) {
	cases := map[Status]string{
		Enabled: "enabled", Disabled: "disabled", Clean: "clean", Faulty: "faulty",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if Status(9).String() != "status(9)" {
		t.Errorf("unknown status string = %q", Status(9).String())
	}
	if Enabled.Bad() || Clean.Bad() {
		t.Error("enabled/clean must not be Bad")
	}
	if !Disabled.Bad() || !Faulty.Bad() {
		t.Error("disabled/faulty must be Bad")
	}
}

func TestNewMeshAllEnabled(t *testing.T) {
	m := New(mustShape(5, 5))
	if m.NumNodes() != 25 {
		t.Fatalf("NumNodes = %d", m.NumNodes())
	}
	for id := 0; id < m.NumNodes(); id++ {
		if m.Status(grid.NodeID(id)) != Enabled {
			t.Fatalf("node %d not enabled initially", id)
		}
	}
	if m.faulty != 0 || m.disabled != 0 || m.NumClean() != 0 {
		t.Fatal("counters not zero initially")
	}
}

func TestNeighborTableMatchesShape(t *testing.T) {
	m := New(mustShape(4, 4, 4))
	shape := m.Shape()
	for id := 0; id < m.NumNodes(); id++ {
		for d := 0; d < shape.NumDirs(); d++ {
			want := shape.Neighbor(grid.NodeID(id), grid.Dir(d))
			if got := m.Neighbor(grid.NodeID(id), grid.Dir(d)); got != want {
				t.Fatalf("Neighbor(%d,%v) = %d, want %d", id, grid.Dir(d), got, want)
			}
		}
	}
}

// TestNeighborsMatchesNeighbor holds each node's neighbor-table row to
// Neighbor in every direction, off-mesh hops included, on a 2-D and a 3-D
// mesh.
func TestNeighborsMatchesNeighbor(t *testing.T) {
	for _, shape := range []*grid.Shape{mustShape(3, 3), mustShape(4, 2, 3)} {
		m := New(shape)
		for id := grid.NodeID(0); int(id) < m.NumNodes(); id++ {
			row := m.Neighbors(id)
			if len(row) != shape.NumDirs() {
				t.Fatalf("%v: Neighbors(%d) has %d entries, want %d", shape, id, len(row), shape.NumDirs())
			}
			for d, nb := range row {
				if want := m.Neighbor(id, grid.Dir(d)); nb != want {
					t.Fatalf("%v: Neighbors(%d)[%v] = %d, Neighbor = %d", shape, id, grid.Dir(d), nb, want)
				}
			}
		}
	}
	m := New(mustShape(3, 3))
	off := 0
	for _, nb := range m.Neighbors(m.Shape().Index(grid.Coord{0, 0})) {
		if nb == grid.InvalidNode {
			off++
		}
	}
	if off != 2 {
		t.Fatalf("corner has %d off-mesh hops, want 2", off)
	}
}

func TestStatusTransitionsAndCounters(t *testing.T) {
	m := New(mustShape(4, 4))
	id := m.Shape().Index(grid.Coord{1, 1})
	m.Fail(id)
	if m.Status(id) != Faulty || m.faulty != 1 {
		t.Fatal("Fail did not apply")
	}
	v := m.Version()
	m.Fail(id) // idempotent: no version bump
	if m.Version() != v {
		t.Fatal("redundant SetStatus bumped version")
	}
	m.Recover(id)
	if m.Status(id) != Clean || m.NumClean() != 1 || m.faulty != 0 {
		t.Fatal("Recover did not set clean")
	}
	// Recover on non-faulty node is a no-op.
	other := m.Shape().Index(grid.Coord{0, 0})
	m.Recover(other)
	if m.Status(other) != Enabled {
		t.Fatal("Recover changed an enabled node")
	}
	m.SetStatus(id, Disabled)
	if m.disabled != 1 || m.NumClean() != 0 {
		t.Fatal("counters wrong after disable")
	}
	m.SetStatus(id, Enabled)
	if m.disabled != 0 {
		t.Fatal("counters wrong after re-enable")
	}
}

func TestCleanAge(t *testing.T) {
	m := New(mustShape(4, 4))
	id := m.Shape().Index(grid.Coord{2, 2})
	m.Fail(id)
	m.Recover(id)
	if m.CleanAge(id) != 0 {
		t.Fatal("fresh clean node has nonzero age")
	}
	m.BumpCleanAge(id)
	m.BumpCleanAge(id)
	if m.CleanAge(id) != 2 {
		t.Fatalf("CleanAge = %d", m.CleanAge(id))
	}
	// Re-entering clean resets the age.
	m.SetStatus(id, Disabled)
	m.SetStatus(id, Clean)
	if m.CleanAge(id) != 0 {
		t.Fatal("clean age not reset")
	}
}

func TestBadNeighborDims(t *testing.T) {
	m := New(mustShape(8, 8))
	shape := m.Shape()
	center := shape.Index(grid.Coord{4, 4})

	// One faulty neighbor: neither condition.
	m.Fail(m.Shape().Index(grid.Coord{5, 4}))
	bad2, faulty2 := m.BadNeighborDims(center)
	if bad2 || faulty2 {
		t.Fatal("single faulty neighbor must not trigger")
	}
	// Two faulty along the SAME axis: still neither (rule 1 needs
	// different dimensions).
	m.Fail(m.Shape().Index(grid.Coord{3, 4}))
	bad2, faulty2 = m.BadNeighborDims(center)
	if bad2 || faulty2 {
		t.Fatal("two faulty neighbors on one axis must not trigger")
	}
	// Add a faulty neighbor on the other axis: both trigger.
	m.Fail(m.Shape().Index(grid.Coord{4, 5}))
	bad2, faulty2 = m.BadNeighborDims(center)
	if !bad2 || !faulty2 {
		t.Fatal("two faulty dims must trigger both conditions")
	}

	// Disabled counts toward bad but not faulty.
	m2 := New(mustShape(8, 8))
	m2.Fail(m2.Shape().Index(grid.Coord{5, 4}))
	m2.SetStatus(shape.Index(grid.Coord{4, 5}), Disabled)
	bad2, faulty2 = m2.BadNeighborDims(center)
	if !bad2 {
		t.Fatal("faulty+disabled in different dims must set badTwoDims")
	}
	if faulty2 {
		t.Fatal("disabled neighbor must not count as faulty")
	}
}

func TestHasCleanNeighbor(t *testing.T) {
	m := New(mustShape(6, 6))
	shape := m.Shape()
	id := shape.Index(grid.Coord{2, 2})
	if m.HasCleanNeighbor(id) {
		t.Fatal("no clean neighbors initially")
	}
	nb := shape.Index(grid.Coord{2, 3})
	m.Fail(nb)
	m.Recover(nb)
	if !m.HasCleanNeighbor(id) {
		t.Fatal("clean neighbor not seen")
	}
}

func TestVersionBumps(t *testing.T) {
	m := New(mustShape(4, 4))
	v0 := m.Version()
	m.Fail(m.Shape().Index(grid.Coord{1, 1}))
	if m.Version() == v0 {
		t.Fatal("version not bumped on change")
	}
}

// checkOpen holds every node's open set to its definition, recomputed from
// the neighbor table and the statuses (the truth the sets are derived from),
// and the faulty, disabled and clean counts Reset reads to a recount.
func checkOpen(t *testing.T, m *Mesh, when string) {
	t.Helper()
	var count [4]int
	for _, s := range m.status {
		count[s]++
	}
	if count[Faulty] != m.faulty || count[Disabled] != m.disabled || count[Clean] != m.NumClean() {
		t.Fatalf("%v %s: counters faulty %d disabled %d clean %d, statuses say %d %d %d", m.Shape(), when,
			m.faulty, m.disabled, m.NumClean(), count[Faulty], count[Disabled], count[Clean])
	}
	for id := grid.NodeID(0); int(id) < m.NumNodes(); id++ {
		var want grid.DirSet
		for d := grid.Dir(0); int(d) < m.Shape().NumDirs(); d++ {
			if nb := m.Neighbor(id, d); nb != grid.InvalidNode && m.Status(nb) == Enabled {
				want = want.Add(d)
			}
		}
		if got := m.Open(id); got != want {
			t.Fatalf("%v %s: Open(%d) = %b, statuses say %b", m.Shape(), when, id, got, want)
		}
	}
}

// TestOpenSetsFollowStatus: the open sets and the counters are derived
// state. After every operation of a random Fail / Recover / SetStatus /
// restore / Reset sequence on mixed-radix 2-D to 4-D meshes — border nodes
// included, and a radix-1 axis whose nodes have no neighbor along it — they
// equal the recomputation. A restore relabels every node to a saved status
// through SetStatus.
func TestOpenSetsFollowStatus(t *testing.T) {
	for i, dims := range [][]int{{5, 4}, {3, 4, 5}, {4, 1, 3}, {3, 2, 4, 3}} {
		m := New(mustShape(dims...))
		checkOpen(t, m, "new")
		r := rng.New(uint64(i) + 1)
		snap := append([]Status(nil), m.status...)
		for op := 0; op < 600; op++ {
			id := grid.NodeID(r.Intn(m.NumNodes()))
			var when string
			switch k := r.Intn(40); {
			case k < 10:
				when = "Fail"
				m.Fail(id)
			case k < 18:
				when = "Recover"
				m.Recover(id)
			case k < 36:
				s := Status(r.Intn(4))
				when = "SetStatus " + s.String()
				m.SetStatus(id, s)
			case k < 37:
				when = "snapshot"
				snap = append(snap[:0], m.status...)
			case k < 39:
				when = "restore"
				for id, s := range snap {
					m.SetStatus(grid.NodeID(id), s)
				}
			default:
				when = "Reset"
				m.Reset()
			}
			checkOpen(t, m, when)
		}
	}
}
