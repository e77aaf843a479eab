package engine

import (
	"testing"

	"ndmesh/internal/core"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/route"
)

func newContentionEngine(t *testing.T, k int, cfg ContentionConfig) (*Engine, *grid.Shape) {
	t.Helper()
	m, err := mesh.NewUniform(2, k)
	if err != nil {
		t.Fatal(err)
	}
	md := core.New(m)
	e := New(md, 1, nil)
	e.EnableContention(cfg)
	return e, m.Shape()
}

// TestContentionSerializesLink pins the arbitration core: two flights that
// need the same directed link on the same step cross it one per step
// (link rate 1), the loser waiting in place.
func TestContentionSerializesLink(t *testing.T) {
	e, shape := newContentionEngine(t, 8, ContentionConfig{LinkRate: 1})
	// Both flights start at (3,3) and go to (5,3): their first hop is the
	// same +X link.
	src := shape.Index(grid.Coord{3, 3})
	dst := shape.Index(grid.Coord{5, 3})
	f1, err := e.Inject(src, dst, route.DOR{})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := e.Inject(src, dst, route.DOR{})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	if f1.Msg.Cur == f2.Msg.Cur {
		t.Fatalf("both flights at %d after one step: link not serialized", f1.Msg.Cur)
	}
	if f1.Msg.Waits != 0 || f2.Msg.Waits != 1 {
		t.Fatalf("waits: f1=%d f2=%d, want 0 and 1 (injection-order priority)",
			f1.Msg.Waits, f2.Msg.Waits)
	}
	for i := 0; i < 8; i++ {
		e.Step()
	}
	if !f1.Msg.Arrived || !f2.Msg.Arrived {
		t.Fatalf("flights did not arrive: %v / %v", f1.Msg, f2.Msg)
	}
	// f2 paid exactly its queueing delay: distance 2 plus one wait.
	if f1.Msg.Steps != 2 || f2.Msg.Steps != 3 {
		t.Fatalf("steps: f1=%d f2=%d, want 2 and 3", f1.Msg.Steps, f2.Msg.Steps)
	}
}

// TestContentionDisabledIsTeleport pins that the default mode is
// unchanged: the same two flights advance in lockstep without waits.
func TestContentionDisabledIsTeleport(t *testing.T) {
	e, shape := newContentionEngine(t, 8, ContentionConfig{LinkRate: 1})
	e.DisableContention()
	src := shape.Index(grid.Coord{3, 3})
	dst := shape.Index(grid.Coord{5, 3})
	f1, _ := e.Inject(src, dst, route.DOR{})
	f2, _ := e.Inject(src, dst, route.DOR{})
	e.Step()
	if f1.Msg.Cur != f2.Msg.Cur {
		t.Fatalf("contention-free flights diverged: %d vs %d", f1.Msg.Cur, f2.Msg.Cur)
	}
	if f1.Msg.Waits != 0 || f2.Msg.Waits != 0 {
		t.Fatalf("waits without contention: %d/%d", f1.Msg.Waits, f2.Msg.Waits)
	}
}

// TestContentionLinkRate pins that LinkRate > 1 grants that many crossings
// per step.
func TestContentionLinkRate(t *testing.T) {
	e, shape := newContentionEngine(t, 8, ContentionConfig{LinkRate: 2})
	src := shape.Index(grid.Coord{3, 3})
	dst := shape.Index(grid.Coord{5, 3})
	f1, _ := e.Inject(src, dst, route.DOR{})
	f2, _ := e.Inject(src, dst, route.DOR{})
	f3, _ := e.Inject(src, dst, route.DOR{})
	e.Step()
	moved := 0
	for _, f := range []*Flight{f1, f2, f3} {
		if f.Msg.Cur != src {
			moved++
		}
	}
	if moved != 2 {
		t.Fatalf("%d flights crossed a rate-2 link in one step, want 2", moved)
	}
}

// TestContentionNodeCapacity pins the buffer model: a flight cannot move
// onto a node whose input queue is full, and Admit refuses injection at a
// full node.
func TestContentionNodeCapacity(t *testing.T) {
	e, shape := newContentionEngine(t, 8, ContentionConfig{LinkRate: 4, NodeCapacity: 1})
	mid := shape.Index(grid.Coord{4, 3})
	// A parked flight occupies the middle node: it routes toward a far
	// destination but is behind the mover, so it moves first each step;
	// park it by filling its next hop instead. Simplest deterministic
	// setup: one flight resting at mid (its destination far away along +X)
	// and one flight at (3,3) whose next hop is mid.
	parked, err := e.Inject(mid, shape.Index(grid.Coord{7, 3}), route.DOR{})
	if err != nil {
		t.Fatal(err)
	}
	mover, err := e.Inject(shape.Index(grid.Coord{3, 3}), mid, route.DOR{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Admit(mid) {
		t.Fatal("Admit at a full node should refuse")
	}
	if !e.Admit(shape.Index(grid.Coord{0, 0})) {
		t.Fatal("Admit at an empty node should accept")
	}
	e.Step()
	// The parked flight moved off mid (it is first in injection order),
	// freeing the slot in the same step for the mover.
	if parked.Msg.Cur == mid {
		t.Fatal("parked flight did not move")
	}
	if mover.Msg.Cur != mid {
		t.Fatalf("mover at %d, want mid %d (slot freed in order)", mover.Msg.Cur, mid)
	}
	if e.Resident(mid) != 1 {
		t.Fatalf("resident(mid) = %d, want 1", e.Resident(mid))
	}
}

// TestContentionCapacityBlocksEntry pins the stall: when the occupant of
// the next node does NOT move (it already arrived but is undetached), the
// mover waits.
func TestContentionCapacityBlocksEntry(t *testing.T) {
	e, shape := newContentionEngine(t, 8, ContentionConfig{LinkRate: 4, NodeCapacity: 1})
	mid := shape.Index(grid.Coord{4, 3})
	occupant, err := e.Inject(shape.Index(grid.Coord{4, 2}), mid, route.DOR{})
	if err != nil {
		t.Fatal(err)
	}
	mover, err := e.Inject(shape.Index(grid.Coord{3, 3}), mid, route.DOR{})
	if err != nil {
		t.Fatal(err)
	}
	e.Step() // occupant arrives at mid; mover blocked (occupant entered first)
	if !occupant.Msg.Arrived {
		t.Fatalf("occupant should have arrived: %v", occupant.Msg)
	}
	if mover.Msg.Cur != shape.Index(grid.Coord{3, 3}) || mover.Msg.Waits != 1 {
		t.Fatalf("mover should wait while mid is full: %v", mover.Msg)
	}
	// Detaching the delivered occupant frees the buffer slot.
	e.DetachDone(nil)
	e.Step()
	if !mover.Msg.Arrived {
		t.Fatalf("mover should arrive once the slot frees: %v", mover.Msg)
	}
}

// TestDetachDoneKeepsOrderAndRecycles pins DetachDone's two contracts:
// active flights keep injection order, and detached flights are recycled
// by later Injects.
func TestDetachDoneKeepsOrderAndRecycles(t *testing.T) {
	e, shape := newContentionEngine(t, 8, ContentionConfig{LinkRate: 8})
	near, _ := e.Inject(shape.Index(grid.Coord{1, 1}), shape.Index(grid.Coord{1, 2}), route.DOR{})
	farA, _ := e.Inject(shape.Index(grid.Coord{2, 2}), shape.Index(grid.Coord{6, 6}), route.DOR{})
	farB, _ := e.Inject(shape.Index(grid.Coord{3, 3}), shape.Index(grid.Coord{7, 7}), route.DOR{})
	e.Step() // near arrives
	detached := 0
	e.DetachDone(func(f *Flight) {
		detached++
		if f != near {
			t.Fatalf("detached wrong flight: %v", f.Msg)
		}
	})
	if detached != 1 {
		t.Fatalf("detached %d flights, want 1", detached)
	}
	fl := e.Flights()
	if len(fl) != 2 || fl[0] != farA || fl[1] != farB {
		t.Fatalf("active list lost order: %v", fl)
	}
	recycled, _ := e.Inject(shape.Index(grid.Coord{1, 1}), shape.Index(grid.Coord{1, 3}), route.DOR{})
	if recycled != near {
		t.Error("Inject did not recycle the detached flight")
	}
}

// TestContentionResetClearsState pins Reset/ClearFlights: residency and
// per-step service counters return to zero so a reused trial starts clean.
func TestContentionResetClearsState(t *testing.T) {
	e, shape := newContentionEngine(t, 8, ContentionConfig{LinkRate: 1, NodeCapacity: 1})
	mid := shape.Index(grid.Coord{4, 4})
	if _, err := e.Inject(shape.Index(grid.Coord{3, 4}), mid, route.DOR{}); err != nil {
		t.Fatal(err)
	}
	e.Step()
	e.Reset()
	for id := 0; id < shape.NumNodes(); id++ {
		if e.Resident(grid.NodeID(id)) != 0 {
			t.Fatalf("resident(%d) = %d after Reset", id, e.Resident(grid.NodeID(id)))
		}
	}
	if !e.Admit(mid) {
		t.Fatal("Admit should accept after Reset")
	}
}

// TestContentionStepAllocFree is the steady-state allocation guarantee of
// the issue: once warm, a contention step (including the harvest sweep and
// re-injection from the free lists) performs zero allocations.
func TestContentionStepAllocFree(t *testing.T) {
	e, shape := newContentionEngine(t, 16, ContentionConfig{LinkRate: 1, NodeCapacity: 4})
	srcs := []grid.Coord{{1, 1}, {14, 1}, {1, 14}, {14, 14}, {7, 2}, {2, 7}}
	dsts := []grid.Coord{{14, 14}, {1, 14}, {14, 1}, {1, 1}, {7, 13}, {13, 7}}
	// A mixed fleet, so Blind's decide path is held to zero too.
	routers := []route.Router{route.Limited{}, route.Blind{}}
	inject := func() {
		for i := range srcs {
			if _, err := e.Inject(shape.Index(srcs[i]), shape.Index(dsts[i]), routers[i%2]); err != nil {
				t.Fatal(err)
			}
		}
	}
	inject()
	// Warm: grow every scratch buffer and free list to steady state.
	for i := 0; i < 200; i++ {
		e.Step()
		e.DetachDone(nil)
		if len(e.Flights()) == 0 {
			inject()
		}
	}
	allocs := testing.AllocsPerRun(300, func() {
		e.Step()
		e.DetachDone(nil)
		if len(e.Flights()) == 0 {
			inject()
		}
	})
	if allocs != 0 {
		t.Fatalf("contention step allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestInjectRejectsOverCapacity pins the latent-state fix on the
// injection path: under contention with a finite NodeCapacity, an Inject
// that skips Admit cannot silently overfill a router buffer — it is
// rejected, and the residency counter stays at capacity.
func TestInjectRejectsOverCapacity(t *testing.T) {
	e, shape := newContentionEngine(t, 6, ContentionConfig{LinkRate: 1, NodeCapacity: 2})
	src := shape.Index(grid.Coord{2, 2})
	dst := shape.Index(grid.Coord{5, 5})
	for i := 0; i < 2; i++ {
		if !e.Admit(src) {
			t.Fatalf("injection %d: source unexpectedly full", i)
		}
		if _, err := e.Inject(src, dst, route.Limited{}); err != nil {
			t.Fatal(err)
		}
	}
	if e.Admit(src) {
		t.Fatal("Admit true at a full source")
	}
	if _, err := e.Inject(src, dst, route.Limited{}); err == nil {
		t.Fatal("Inject at a full source succeeded; want capacity error")
	}
	if got := e.Resident(src); got != 2 {
		t.Fatalf("residency after rejected injection = %d, want 2", got)
	}
	// Unbounded capacity (0) and contention-free mode keep accepting.
	e2, shape2 := newContentionEngine(t, 6, ContentionConfig{LinkRate: 1})
	s2, d2 := shape2.Index(grid.Coord{1, 1}), shape2.Index(grid.Coord{4, 4})
	for i := 0; i < 8; i++ {
		if _, err := e2.Inject(s2, d2, route.Limited{}); err != nil {
			t.Fatalf("unbounded injection %d rejected: %v", i, err)
		}
	}
	e2.DisableContention()
	if _, err := e2.Inject(s2, d2, route.Limited{}); err != nil {
		t.Fatalf("contention-free injection rejected: %v", err)
	}
}
