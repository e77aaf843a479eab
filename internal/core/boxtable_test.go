package core

import (
	"bytes"
	"testing"

	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
)

// storm replays a bernoulli fail/repair process (arrival 0.2 per step, mean
// repair 24 steps) on md, calling after every round.
func storm(t *testing.T, md *Model, seed uint64, steps, lambda int, after func(step int)) {
	t.Helper()
	sched, err := fault.GenerateProcess(md.M.Shape(), fault.ProcessOptions{
		Arrival: fault.Delay{Model: fault.DelayBernoulli, Rate: 0.2},
		Repair:  fault.Delay{Model: fault.DelayBernoulli, Rate: 1.0 / 24},
		Start:   1, Horizon: steps,
	}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	replay(md, sched, steps, lambda, func(step, _ int) { after(step) })
}

// boxKey packs a box of a small mesh (radices below 256, at most 4-D) into
// one comparable word.
func boxKey(b grid.Box) (k uint64) {
	for i := range b.Lo {
		k = k<<16 | uint64(b.Lo[i])<<8 | uint64(b.Hi[i])
	}
	return k
}

// TestBoxTableLifetime holds the store's box table to its lifetime rule over
// a long 16x16, lambda=2 storm (4000 steps, 8000 rounds; stale records of
// dissolved blocks pile up in such a storm, so a few hundred blocks are named
// at once by its end). After every round:
//
//   - the table holds exactly the ids someone names — a record, a watch or an
//     in-flight construction (subject or merge base) — with no slack: an id is
//     neither leaked past its last holder nor freed under one;
//   - no two named ids show the same box (ids are canonical);
//   - a record that names the same id at the same node before and after the
//     round shows the same box: a recycled id is never observable as a
//     different block through a surviving record. (One round cannot free an
//     id, re-intern it and deposit it at the same node again: interning
//     happens in the identification phase, before the round's floods run.)
//
// The table must also recycle: ids are handed out densely, so the largest id
// ever seen stays below the most ids named at once plus a slack of 8 (ids
// interned within a round before the round's releases), while the storm names
// more distinct boxes than the table ever had slots. Last, a Reset after the storm must
// leave a model observationally identical to core.New, now and along a
// further storm.
func TestBoxTableLifetime(t *testing.T) {
	const steps, lambda, slack = 4000, 2, 8
	shape := meshtest.MustShape(16, 16)
	md := New(mesh.New(shape))

	type shown struct {
		block info.BlockID
		box   uint64
	}
	prev, cur := make([][]shown, shape.NumNodes()), make([][]shown, shape.NumNodes()) // last and this round's records, per node
	named := map[info.BlockID]uint64{}                                                // this round's holders' ids -> box
	boxes := map[uint64]info.BlockID{}
	ever := map[uint64]bool{}
	var held []info.BlockID
	peak, maxID := 0, info.BlockID(0)
	storm(t, md, 19, steps, lambda, func(step int) {
		clear(named)
		name := func(b info.BlockID) { named[b] = boxKey(md.Store.Box(b)) }
		for id := grid.NodeID(0); int(id) < shape.NumNodes(); id++ {
			cur[id] = cur[id][:0]
			for _, r := range md.Store.At(id) {
				name(r.Block)
				for _, p := range prev[id] {
					if p.block == r.Block && p.box != named[r.Block] {
						t.Fatalf("step %d: node %v's record of block id %d changed its box to %v",
							step, shape.CoordView(id), r.Block, md.Store.Box(r.Block))
					}
				}
				cur[id] = append(cur[id], shown{r.Block, named[r.Block]})
			}
		}
		prev, cur = cur, prev
		for _, w := range md.watches {
			name(w.block)
		}
		held = floodBlocks(held[:0], md)
		for _, b := range held {
			name(b)
		}
		if got := namedBlocks(md); got != len(named) {
			t.Fatalf("step %d: the table holds %d ids, %d are named by records, watches and constructions", step, got, len(named))
		}
		clear(boxes)
		for b, box := range named {
			if other, dup := boxes[box]; dup {
				t.Fatalf("step %d: ids %d and %d both name %v", step, b, other, md.Store.Box(b))
			}
			boxes[box] = b
			ever[box] = true
			maxID = max(maxID, b)
		}
		peak = max(peak, len(named))
	})
	if int(maxID) >= peak+slack {
		t.Fatalf("ids ran up to %d with at most %d named at once: freed ids are not reused", maxID, peak)
	}
	if len(ever) < int(maxID)+1+slack {
		t.Fatalf("storm named %d distinct boxes in a table of %d slots: too tame to show recycling", len(ever), maxID+1)
	}
	t.Logf("%d distinct boxes named, at most %d at once, largest id %d", len(ever), peak, maxID)

	md.Reset()
	fresh := New(mesh.New(shape))
	if namedBlocks(md) != 0 || !bytes.Equal(observe(nil, md), observe(nil, fresh)) {
		t.Fatalf("a Reset model differs from core.New (%d ids still in the table)", namedBlocks(md))
	}
	var trace [][]byte
	storm(t, fresh, 23, 200, lambda, func(int) { trace = append(trace, observe(nil, fresh)) })
	k := 0
	storm(t, md, 23, 200, lambda, func(step int) {
		if !bytes.Equal(observe(nil, md), trace[k]) {
			t.Fatalf("step %d: the Reset model diverges from a fresh one", step)
		}
		k++
	})
}
