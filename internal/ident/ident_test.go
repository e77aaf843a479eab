package ident

import (
	"slices"
	"testing"

	"ndmesh/internal/block"
	"ndmesh/internal/frame"
	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
)

// harness wires a mesh with stabilized labeling + frame announcements and
// an identification protocol, capturing completions.
type harness struct {
	m     *mesh.Mesh
	det   *frame.Detector
	store *info.Store
	p     *Protocol
	found []grid.Box
	at    []grid.NodeID
}

func newHarness(t *testing.T, dims []int, faults []grid.Coord) *harness {
	t.Helper()
	shape, err := grid.NewShape(dims...)
	if err != nil {
		t.Fatal(err)
	}
	m := mesh.New(shape)
	var seeds []grid.NodeID
	for _, c := range faults {
		id := shape.Index(c)
		m.Fail(id)
		seeds = append(seeds, id)
	}
	res := block.Stabilize(m, seeds...)
	if !res.Converged {
		t.Fatal("labeling not converged")
	}
	det := frame.NewDetector(m)
	det.Seed(seeds...)
	for rounds := 0; !det.Quiescent(); rounds++ {
		if rounds > 8*(m.Shape().Diameter()+2) {
			t.Fatalf("frame detector not quiescent after %d rounds", rounds)
		}
		det.Round()
	}
	store := info.NewStore(m.Shape())
	h := &harness{m: m, det: det, store: store}
	h.p = NewProtocol(m, det, store)
	h.p.OnIdentified = func(b grid.Box, corner grid.NodeID) {
		h.found = append(h.found, b)
		h.at = append(h.at, corner)
	}
	return h
}

// kick notifies the protocol of all current announcements (as core would
// with the detector change feed) and runs rounds to quiescence.
func (h *harness) kick(t *testing.T) int {
	t.Helper()
	for id := 0; id < h.m.NumNodes(); id++ {
		if h.det.Announcement(grid.NodeID(id)).Level > 0 {
			h.p.Notify(grid.NodeID(id))
		}
	}
	rounds := 0
	for !h.p.Quiescent() {
		h.p.Round()
		rounds++
		if rounds > 20000 {
			t.Fatal("identification did not quiesce")
		}
	}
	return rounds
}

// depositAll mimics core's post-identification flood so corners get their
// records (stopping duplicate runs) — done instantly for test simplicity.
func (h *harness) depositAll(epoch uint32) {
	for i, b := range h.found {
		_ = i
		frame.EachShellNode(b, func(c grid.Coord, _ int) {
			if h.m.Shape().Contains(c) {
				h.store.Add(h.m.Shape().Index(c), info.Record{Block: h.store.Intern(b), Epoch: epoch})
			}
		})
	}
}

// TestFigure5Identification3D reproduces the paper's Figure 5: the 3-phase
// identification of the Figure 1 block in a 3-D mesh. Every one of the 8
// corners initiates; all completed runs must identify the same box.
func TestFigure5Identification3D(t *testing.T) {
	h := newHarness(t, []int{10, 10, 10},
		[]grid.Coord{{3, 5, 4}, {4, 5, 4}, {5, 5, 3}, {3, 6, 3}})
	rounds := h.kick(t)
	want := meshtest.NewBox(grid.Coord{3, 5, 3}, grid.Coord{5, 6, 4})
	if len(h.found) == 0 {
		t.Fatalf("no identification completed (started=%d failed=%d)", h.p.Started, h.p.Failed)
	}
	for i, b := range h.found {
		if !b.Equal(want) {
			t.Fatalf("identification %d = %v, want %v", i, b, want)
		}
	}
	// The information forms at a corner opposite some initiator: every
	// completion node must be an n-level corner of the block.
	for _, id := range h.at {
		if !frame.IsCorner(want, h.m.Shape().CoordOf(id)) {
			t.Fatalf("completion at non-corner %v", h.m.Shape().CoordOf(id))
		}
	}
	t.Logf("identified %d times in %d rounds, %d hops", len(h.found), rounds, h.p.Hops)
}

// TestIdentification2D: in 2-D the identification is the base-case ring
// walk (the model of reference [9]).
func TestIdentification2D(t *testing.T) {
	h := newHarness(t, []int{12, 12}, []grid.Coord{{5, 5}, {6, 6}})
	h.kick(t)
	want := meshtest.NewBox(grid.Coord{5, 5}, grid.Coord{6, 6})
	if len(h.found) == 0 {
		t.Fatalf("no completion (started=%d failed=%d)", h.p.Started, h.p.Failed)
	}
	for _, b := range h.found {
		if !b.Equal(want) {
			t.Fatalf("identified %v, want %v", b, want)
		}
	}
}

// TestIdentification4D exercises the full recursion: a 4-D block needs
// nested 3-level identifications whose sections are themselves identified
// by ring walks.
func TestIdentification4D(t *testing.T) {
	h := newHarness(t, []int{7, 7, 7, 7},
		[]grid.Coord{{3, 3, 3, 3}, {4, 4, 3, 3}})
	h.kick(t)
	// Faults at (3,3,3,3) and (4,4,3,3) are diagonal in the x,y plane:
	// block [3:4, 3:4, 3:3, 3:3].
	want := meshtest.NewBox(grid.Coord{3, 3, 3, 3}, grid.Coord{4, 4, 3, 3})
	if len(h.found) == 0 {
		t.Fatalf("no 4-D completion (started=%d failed=%d)", h.p.Started, h.p.Failed)
	}
	for _, b := range h.found {
		if !b.Equal(want) {
			t.Fatalf("identified %v, want %v", b, want)
		}
	}
	t.Logf("4-D identified %d times, %d hops", len(h.found), h.p.Hops)
}

// TestIdentification5D pushes the recursion one level further: a 5-D block
// requires 4-level identifications nested inside the 5-level process.
func TestIdentification5D(t *testing.T) {
	h := newHarness(t, []int{5, 5, 5, 5, 5}, []grid.Coord{{2, 2, 2, 2, 2}})
	h.kick(t)
	want := grid.BoxAt(grid.Coord{2, 2, 2, 2, 2})
	if len(h.found) == 0 {
		t.Fatalf("no 5-D completion (started=%d failed=%d)", h.p.Started, h.p.Failed)
	}
	for _, b := range h.found {
		if !b.Equal(want) {
			t.Fatalf("identified %v, want %v", b, want)
		}
	}
	t.Logf("5-D identified %d times, %d hops", len(h.found), h.p.Hops)
}

// TestIdentificationSingleton: the smallest possible block.
func TestIdentificationSingleton(t *testing.T) {
	h := newHarness(t, []int{8, 8}, []grid.Coord{{4, 4}})
	h.kick(t)
	want := grid.BoxAt(grid.Coord{4, 4})
	if len(h.found) == 0 {
		t.Fatal("no completion for singleton")
	}
	for _, b := range h.found {
		if !b.Equal(want) {
			t.Fatalf("identified %v, want %v", b, want)
		}
	}
}

// TestInitiationSuppressedByRecord: a corner already holding its block's
// record must not re-initiate.
func TestInitiationSuppressedByRecord(t *testing.T) {
	h := newHarness(t, []int{8, 8}, []grid.Coord{{4, 4}})
	h.kick(t)
	started := h.p.Started
	h.depositAll(1)
	// Re-notify everything: no new runs should start.
	rounds := h.kick(t)
	if h.p.Started != started {
		t.Fatalf("re-initiated despite records: %d -> %d", started, h.p.Started)
	}
	_ = rounds
}

// TestIdentificationDiscardsOnInterference: a second block parked directly
// on the first block's ring makes the walk impossible; the runs must fail
// (TTL/discard) without reporting a wrong box, and retries must stay
// bounded.
func TestIdentificationDiscardsOnInterference(t *testing.T) {
	// Faults at distance 2: (4,4) and (4,6). Both stay singleton blocks
	// ((4,5) has two faulty neighbors along the SAME axis, so it remains
	// enabled), but each block's ring passes through the other block's
	// fault node.
	h := newHarness(t, []int{10, 10}, []grid.Coord{{4, 4}, {4, 6}})
	h.kick(t)
	for _, b := range h.found {
		// Any completed identification must still be geometrically
		// correct — one of the two singletons.
		okBox := b.Equal(grid.BoxAt(grid.Coord{4, 4})) || b.Equal(grid.BoxAt(grid.Coord{4, 6}))
		if !okBox {
			t.Fatalf("interference produced wrong box %v", b)
		}
	}
	if h.p.Failed == 0 {
		t.Log("note: no run failed; rings fully avoided the interference")
	}
	// Quiescence itself (asserted by kick) proves retries are bounded.
}

// TestRunsFailFastOnMidFlightChange: killing a node mid-identification
// must not corrupt the result; eventually the retry identifies the grown
// block.
func TestRunsFailFastOnMidFlightChange(t *testing.T) {
	h := newHarness(t, []int{12, 12}, []grid.Coord{{5, 5}})
	// Start runs but only a few rounds in, grow the block.
	for id := 0; id < h.m.NumNodes(); id++ {
		if h.det.Announcement(grid.NodeID(id)).Level > 0 {
			h.p.Notify(grid.NodeID(id))
		}
	}
	for i := 0; i < 2; i++ {
		h.p.Round()
	}
	// New fault adjacent diagonal: block grows to [5:6, 5:6].
	nid := h.m.Shape().Index(grid.Coord{6, 6})
	h.m.Fail(nid)
	st := block.NewStepper(h.m)
	st.Seed(nid)
	for !st.Quiescent() {
		if ch := st.Round(); ch > 0 {
			h.det.Seed(st.LastChanged()...)
		}
		h.det.Round()
		h.p.Round()
	}
	for !h.det.Quiescent() {
		h.det.Round()
	}
	// Let everything settle; notify new corners.
	rounds := h.kick(t)
	_ = rounds
	want := meshtest.NewBox(grid.Coord{5, 5}, grid.Coord{6, 6})
	sawGrown := false
	for _, b := range h.found {
		if b.Equal(want) {
			sawGrown = true
		} else if !b.Equal(grid.BoxAt(grid.Coord{5, 5})) {
			t.Fatalf("wrong box identified: %v", b)
		}
	}
	if !sawGrown {
		t.Fatalf("grown block never identified: found=%v failed=%d", h.found, h.p.Failed)
	}
}

// TestHopAccounting: identification messages advance one hop per round, so
// hops <= active walkers * rounds and rounds scale with block perimeter.
func TestHopAccounting(t *testing.T) {
	h := newHarness(t, []int{24, 24}, []grid.Coord{{10, 10}, {11, 11}, {12, 12}})
	rounds := h.kick(t)
	if h.p.Hops == 0 || rounds == 0 {
		t.Fatal("no work recorded")
	}
	// The block is 3x3; a ring walk is ~16 hops; the whole identification
	// must finish in rounds proportional to the perimeter, far below the
	// mesh diameter budget (TTL).
	if rounds > h.p.TTL {
		t.Fatalf("rounds %d exceeded TTL %d", rounds, h.p.TTL)
	}
	t.Logf("3x3 block in 24x24 mesh: %d rounds, %d hops, %d runs", rounds, h.p.Hops, h.p.Started)
}

// TestQuiescentInitially: a protocol with no notifications does nothing.
func TestQuiescentInitially(t *testing.T) {
	h := newHarness(t, []int{6, 6}, nil)
	if !h.p.Quiescent() {
		t.Fatal("fresh protocol not quiescent")
	}
	if h.p.Round() != 0 {
		t.Fatal("idle round reported activity")
	}
}

// TestExpiredRunRetiresInItsRound: in the round a run passes its deadline,
// the walker filter drops its walkers and the run, with its subs, goes back
// on the free lists — no walker outlives its run by a round. A TTL shorter
// than the ring walk around a 3x3 block makes every run expire in flight.
func TestExpiredRunRetiresInItsRound(t *testing.T) {
	h := newHarness(t, []int{16, 16}, []grid.Coord{{6, 6}, {7, 7}, {8, 8}})
	h.p.TTL = 3
	for id := 0; id < h.m.NumNodes(); id++ {
		if h.det.Announcement(grid.NodeID(id)).Level > 0 {
			h.p.Notify(grid.NodeID(id))
		}
	}
	expired := 0
	for rounds := 0; !h.p.Quiescent(); rounds++ {
		if rounds > 2000 {
			t.Fatal("identification did not quiesce")
		}
		// The runs that pass their deadline this round, walkers in flight.
		var ending []*run
		for _, r := range h.p.runs {
			if r.deadline == h.p.round && !r.done && !r.failed {
				ending = append(ending, r)
			}
		}
		h.p.Round()
		for _, w := range h.p.walkers {
			if !slices.Contains(h.p.runs, w.s.r) {
				t.Fatalf("round %d: a walker of a retired run is still in flight", h.p.round)
			}
		}
		if len(ending) == 0 {
			continue
		}
		expired += len(ending)
		// The last run retired is the first the free list hands out, and
		// its last sub the first of the subs.
		r, fresh := h.p.spareRuns.Get()
		if fresh || !slices.Contains(ending, r) {
			t.Fatalf("round %d: an expired run is not back on the free list", h.p.round)
		}
		s, fresh := h.p.spareSubs.Get()
		if fresh || s != r.subs[len(r.subs)-1] {
			t.Fatalf("round %d: an expired run's subs are not back on the free list", h.p.round)
		}
		h.p.spareSubs.Put(s)
		h.p.spareRuns.Put(r)
	}
	if expired == 0 || len(h.found) > 0 {
		t.Fatalf("%d runs expired and %d completed, want every run to expire", expired, len(h.found))
	}
}
