package engine

import (
	"fmt"
	"testing"

	"ndmesh/internal/core"
	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
)

// TestShardedStepMatchesSerial is the sharded stepper's core contract at
// the engine level: a serial engine and a sharded one driven through the
// identical randomized scenario — mixed routers (including the
// non-step-stable congested router), dynamic faults, bursty injection,
// finite buffers — agree on every message's full observable state after
// every step, for several shard counts. CI runs it under -race, which
// also certifies the propose fan-out shares no mutable state.
func TestShardedStepMatchesSerial(t *testing.T) {
	for _, shards := range []int{2, 3, 5, 16} {
		t.Run(fmt.Sprint("shards", shards), func(t *testing.T) {
			build := func() (*Engine, *mesh.Mesh) {
				m, err := mesh.NewUniform(2, 12)
				if err != nil {
					t.Fatal(err)
				}
				md := core.New(m)
				r := rng.New(99)
				sched, err := fault.Generate(m.Shape(), 3, fault.Options{Interval: 12, Start: 5}, r)
				if err != nil {
					t.Fatal(err)
				}
				e := New(md, 1, sched)
				e.EnableContention(ContentionConfig{LinkRate: 1, NodeCapacity: 3})
				return e, m
			}
			serial, _ := build()
			sharded, _ := build()
			sharded.SetShards(shards)
			defer sharded.SetShards(1)

			routers := []route.Router{route.Limited{}, route.Congested{}, route.Blind{}}
			r := rng.New(7)
			n := serial.Model.M.NumNodes()
			for step := 0; step < 80; step++ {
				for k := r.Intn(8); k > 0; k-- {
					src := grid.NodeID(r.Intn(n))
					dst := grid.NodeID(r.Intn(n))
					rtr := routers[r.Intn(len(routers))]
					if src == dst || serial.Model.M.Status(src) != mesh.Enabled || !serial.Admit(src) {
						continue
					}
					if _, err := serial.Inject(src, dst, rtr); err != nil {
						t.Fatal(err)
					}
					if _, err := sharded.Inject(src, dst, rtr); err != nil {
						t.Fatal(err)
					}
				}
				serial.Step()
				sharded.Step()
				sf, pf := serial.Flights(), sharded.Flights()
				if len(sf) != len(pf) {
					t.Fatalf("step %d: flight counts diverged: %d vs %d", step, len(sf), len(pf))
				}
				for i := range sf {
					a, b := sf[i].Msg, pf[i].Msg
					as := fmt.Sprintf("%v waits=%d arrived=%v unreach=%v lost=%v", a, a.Waits, a.Arrived, a.Unreachable, a.Lost)
					bs := fmt.Sprintf("%v waits=%d arrived=%v unreach=%v lost=%v", b, b.Waits, b.Arrived, b.Unreachable, b.Lost)
					if as != bs {
						t.Fatalf("step %d flight %d diverged:\n serial  %s\n sharded %s", step, i, as, bs)
					}
				}
				for id := 0; id < n; id++ {
					if a, b := serial.Resident(grid.NodeID(id)), sharded.Resident(grid.NodeID(id)); a != b {
						t.Fatalf("step %d node %d: residency diverged %d vs %d", step, id, a, b)
					}
				}
				serial.DetachDone(nil)
				sharded.DetachDone(nil)
			}
		})
	}
}

// TestShardedStepAllocFree extends the steady-state 0 allocs/op guarantee
// to the sharded step: propose kick-off, the parallel Decide fan-out, the
// barrier and the serial commit must all recycle — CI asserts it so the
// per-shard step cost stays allocation-free.
func TestShardedStepAllocFree(t *testing.T) {
	e, shape := newContentionEngine(t, 16, ContentionConfig{LinkRate: 1, NodeCapacity: 4})
	e.SetShards(4)
	defer e.SetShards(1)
	srcs := []grid.Coord{{1, 1}, {14, 1}, {1, 14}, {14, 14}, {7, 2}, {2, 7}}
	dsts := []grid.Coord{{14, 14}, {1, 14}, {14, 1}, {1, 1}, {7, 13}, {13, 7}}
	// Mixed router fleet so the sharded alloc assertion covers the Blind
	// decide path too (Limited and Congested have dedicated assertions).
	routers := []route.Router{route.Limited{}, route.Blind{}, route.Limited{}, route.Blind{}, route.Limited{}, route.Blind{}}
	inject := func() {
		for i := range srcs {
			if _, err := e.Inject(shape.Index(srcs[i]), shape.Index(dsts[i]), routers[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	inject()
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
		t.Fatalf("sharded contention step allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestSetShardsClampsAndRestores pins the knob's edges: values below 1
// and above the node count clamp, and returning to 1 restores the serial
// stepper (the worker teardown path).
func TestSetShardsClamps(t *testing.T) {
	e, _ := newContentionEngine(t, 4, ContentionConfig{LinkRate: 1})
	if got := e.Shards(); got != 1 {
		t.Fatalf("fresh engine shards = %d, want 1", got)
	}
	e.SetShards(0)
	if got := e.Shards(); got != 1 {
		t.Fatalf("SetShards(0) -> %d, want 1", got)
	}
	e.SetShards(1 << 20) // clamps to the node count
	if got, n := e.Shards(), e.Model.M.NumNodes(); got != n {
		t.Fatalf("SetShards(huge) -> %d, want node count %d", got, n)
	}
	e.SetShards(1)
	if got := e.Shards(); got != 1 {
		t.Fatalf("SetShards(1) -> %d, want 1", got)
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

// TestSetPolicyReachesEveryShard: the tie-breaking policy is an engine
// setting, so it must govern the decisions proposed by the shards' own
// routing scratch exactly as it governs the serial commit's — whether it
// is set before or after SetShards. A diagonal flight takes its long axis
// first under LargestOffset and axis 0 first under the default.
func TestSetPolicyReachesEveryShard(t *testing.T) {
	first := func(shards int, setFirst bool) grid.NodeID {
		e, shape := newContentionEngine(t, 8, ContentionConfig{LinkRate: 1})
		if setFirst {
			e.SetPolicy(route.LargestOffset)
		}
		e.SetShards(shards)
		defer e.SetShards(1)
		if !setFirst {
			e.SetPolicy(route.LargestOffset)
		}
		fl, err := e.Inject(shape.Index(grid.Coord{1, 1}), shape.Index(grid.Coord{3, 6}), route.Limited{})
		if err != nil {
			t.Fatal(err)
		}
		e.Step()
		return fl.Msg.Cur
	}
	_, shape := newContentionEngine(t, 8, ContentionConfig{LinkRate: 1})
	want := shape.Index(grid.Coord{1, 2}) // the offset along axis 1 is the larger
	for _, shards := range []int{1, 2, 3} {
		for _, setFirst := range []bool{false, true} {
			if got := first(shards, setFirst); got != want {
				t.Errorf("shards=%d policy-set-first=%v: first hop to node %d, want %d", shards, setFirst, got, want)
			}
		}
	}
}
