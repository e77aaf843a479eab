package core

import (
	"testing"

	"ndmesh/internal/fault"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
)

// TestCancelTombstonesBounded runs a 4000-step 16x16, lambda=2 storm (the
// one TestBoxTableLifetime runs), cuts it, stabilizes, and then runs one
// tombstone lifetime (the mesh diameter in rounds) of idle rounds: every
// cancel tombstone must be gone, so a long-lived model does not accumulate
// them. It reports the oracle gaps at that quiescence.
func TestCancelTombstonesBounded(t *testing.T) {
	shape := meshtest.MustShape(16, 16)
	md := New(mesh.New(shape))
	peak := 0
	storm(t, md, 19, 4000, 2, func(int) { peak = max(peak, tombstones(md)) })
	if md.CancelsStarted == 0 || peak == 0 {
		t.Fatalf("storm started %d cancellations, held at most %d tombstones: not a cancel-heavy storm", md.CancelsStarted, peak)
	}
	md.Stabilize()
	if !md.Quiescent() {
		t.Fatal("not quiescent inside Stabilize's cap after the cut")
	}
	holes, stale, unbuilt := oracleGaps(md)
	for range shape.Diameter() {
		md.Round()
	}
	if n := tombstones(md); n != 0 {
		t.Fatalf("%d tombstones left %d idle rounds after quiescence", n, shape.Diameter())
	}
	t.Logf("%d cancellations, at most %d tombstones at once; at quiescence %d holes, %d stale of %d records, %d unbuilt blocks",
		md.CancelsStarted, peak, holes, stale, md.Store.TotalRecords(), unbuilt)
}

// TestCancelHeavyRoundsAllocFree replays a cancel-heavy fail/repair storm on
// a model that already ran it and was Reset: the cancellations' tombstone
// arena, their expiry queue and everything else the rounds touch must reuse
// their capacity, so the replay allocates nothing. Recycled constructions
// and identification runs come back in a different order each cycle, so
// their buffers reach peak capacity only after a few (7, 3, 1, 1 and then
// no allocations on this storm).
func TestCancelHeavyRoundsAllocFree(t *testing.T) {
	shape := meshtest.MustShape(16, 16)
	sched, err := fault.GenerateProcess(shape, fault.ProcessOptions{
		Arrival: fault.Delay{Model: fault.DelayBernoulli, Rate: 0.2},
		Repair:  fault.Delay{Model: fault.DelayBernoulli, Rate: 1.0 / 24},
		Start:   1, Horizon: 400,
	}, rng.New(29))
	if err != nil {
		t.Fatal(err)
	}
	md := New(mesh.New(shape))
	cancels := 0
	run := func() {
		md.Reset()
		replay(md, sched, 400, 2, func(int, int) {})
		cancels = md.CancelsStarted
	}
	for range 5 {
		run()
	}
	if allocs := testing.AllocsPerRun(1, run); allocs != 0 {
		t.Fatalf("a warm replay of %d cancellations allocates %.0f times, want 0", cancels, allocs)
	}
	if cancels < 20 {
		t.Fatalf("storm started %d cancellations: not cancel-heavy", cancels)
	}
}
