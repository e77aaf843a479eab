package core

import (
	"testing"

	"ndmesh/internal/block"
	"ndmesh/internal/boundary"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
)

// placeSeparated puts nf faults with pairwise Chebyshev distance >= sep in
// the interior of the mesh, returning their nodes (or fewer when space runs
// out).
func placeSeparated(m *mesh.Mesh, nf, sep int, r *rng.Source) []grid.NodeID {
	shape := m.Shape()
	var placed []grid.NodeID
	for attempt := 0; attempt < 4000 && len(placed) < nf; attempt++ {
		cand := grid.NodeID(r.Intn(shape.NumNodes()))
		if shape.OnBorder(cand) {
			continue
		}
		ok := true
		for _, p := range placed {
			cheb := 0
			for axis := 0; axis < shape.Dims(); axis++ {
				d := shape.Component(cand, axis) - shape.Component(p, axis)
				if d < 0 {
					d = -d
				}
				if d > cheb {
					cheb = d
				}
			}
			if cheb < sep {
				ok = false
				break
			}
		}
		if ok {
			placed = append(placed, cand)
		}
	}
	return placed
}

// TestPropertyInformationMatchesOracle: for random well-separated fault
// sets, after stabilization the distributed information equals the oracle
// placement exactly — every enabled placement node of every block holds
// that block's record, and no record is stale (oracleGaps, which
// TestOracleGapsRatchet applies to fail/repair histories), in 2-D and 3-D.
func TestPropertyInformationMatchesOracle(t *testing.T) {
	r := rng.New(77)
	for _, dims := range [][]int{{16, 16}, {9, 9, 9}} {
		shape, err := grid.NewShape(dims...)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 12; trial++ {
			m := mesh.New(shape)
			md := New(m)
			faults := placeSeparated(m, 2+r.Intn(3), 5, r.Split())
			for _, id := range faults {
				md.ApplyFault(id)
			}
			md.Stabilize()
			if !md.Quiescent() {
				t.Fatalf("%v trial %d: not quiescent", dims, trial)
			}
			blocks := block.Extract(m)
			if len(blocks) != len(faults) {
				t.Fatalf("%v trial %d: blocks %d != faults %d (separation broken?)",
					dims, trial, len(blocks), len(faults))
			}
			// Forward direction: oracle placement fully informed.
			for _, b := range blocks {
				for _, id := range boundary.Placement(shape, b.Box) {
					if m.Status(id) != mesh.Enabled {
						continue
					}
					if !hasBox(md.Store, id, b.Box) {
						t.Fatalf("%v trial %d: %v lacks record for %v",
							dims, trial, shape.CoordOf(id), b.Box)
					}
				}
			}
			// Both clauses of the oracle the fail/repair histories are held
			// to (oracleGaps): no hole in any block's scope, and every
			// record names a live block and sits on some live block's
			// placement — its own, or (merged information, Fig. 3(d))
			// another's. Nothing may float in open space.
			if holes, stale, unbuilt := oracleGaps(md); holes != 0 || stale != 0 || unbuilt != 0 {
				t.Fatalf("%v trial %d: %d holes, %d stale records, %d unbuilt blocks", dims, trial, holes, stale, unbuilt)
			}
		}
	}
}

// TestPropertyFullRecoveryEmptiesStore: recovering every fault always
// returns the mesh and the store to pristine state.
func TestPropertyFullRecoveryEmptiesStore(t *testing.T) {
	r := rng.New(55)
	for trial := 0; trial < 15; trial++ {
		m, _ := meshtest.NewUniform(2, 14)
		md := New(m)
		faults := placeSeparated(m, 1+r.Intn(3), 5, r.Split())
		for _, id := range faults {
			md.ApplyFault(id)
		}
		md.Stabilize()
		for _, id := range faults {
			md.ApplyRecovery(id)
			md.Stabilize()
		}
		if !md.Quiescent() {
			t.Fatalf("trial %d: not quiescent after recovery", trial)
		}
		if meshtest.Count(m, mesh.Enabled) != m.NumNodes() {
			t.Fatalf("trial %d: mesh not pristine", trial)
		}
		if md.Store.TotalRecords() != 0 {
			t.Fatalf("trial %d: %d stale records after full recovery",
				trial, md.Store.TotalRecords())
		}
	}
}

// TestPropertyGrowShrinkCycle: growing a block and shrinking it back
// converges to the same information as building the small block directly.
func TestPropertyGrowShrinkCycle(t *testing.T) {
	mkModel := func() (*Model, grid.NodeID, grid.NodeID) {
		m, _ := meshtest.NewUniform(2, 14)
		md := New(m)
		a := m.Shape().Index(grid.Coord{6, 6})
		b := m.Shape().Index(grid.Coord{7, 7})
		return md, a, b
	}
	// Reference: only fault a.
	ref, a, _ := mkModel()
	ref.ApplyFault(a)
	ref.Stabilize()

	// Cycle: fault a, fault b (grow), recover b (shrink back).
	cyc, a2, b2 := mkModel()
	cyc.ApplyFault(a2)
	cyc.Stabilize()
	cyc.ApplyFault(b2)
	cyc.Stabilize()
	cyc.ApplyRecovery(b2)
	cyc.Stabilize()
	if !cyc.Quiescent() {
		t.Fatal("cycle model not quiescent")
	}

	if refN, cycN := ref.Store.TotalRecords(), cyc.Store.TotalRecords(); refN != cycN {
		t.Fatalf("record counts diverge: direct %d vs cycle %d", refN, cycN)
	}
	for id := 0; id < ref.M.NumNodes(); id++ {
		refRecs := ref.Store.At(grid.NodeID(id))
		cycRecs := cyc.Store.At(grid.NodeID(id))
		if len(refRecs) != len(cycRecs) {
			t.Fatalf("node %v: %d vs %d records",
				ref.M.Shape().CoordOf(grid.NodeID(id)), len(refRecs), len(cycRecs))
		}
		for i := range refRecs {
			if !ref.Store.Box(refRecs[i].Block).Equal(cyc.Store.Box(cycRecs[i].Block)) {
				t.Fatalf("node %v: boxes diverge", ref.M.Shape().CoordOf(grid.NodeID(id)))
			}
		}
	}
}

// TestPropertyEventualIdentification4D: the full pipeline works in 4-D with
// two separated blocks.
func TestPropertyEventualIdentification4D(t *testing.T) {
	shape, _ := grid.NewShape(7, 7, 7, 7)
	m := mesh.New(shape)
	md := New(m)
	md.ApplyFault(shape.Index(grid.Coord{2, 2, 2, 2}))
	md.ApplyFault(shape.Index(grid.Coord{4, 4, 4, 4}))
	md.Stabilize()
	if !md.Quiescent() {
		t.Fatal("4-D model not quiescent")
	}
	for _, b := range block.Extract(m) {
		for _, id := range boundary.Placement(shape, b.Box) {
			if m.Status(id) == mesh.Enabled && !hasBox(md.Store, id, b.Box) {
				t.Fatalf("4-D placement node %v lacks record for %v",
					shape.CoordOf(id), b.Box)
			}
		}
	}
}
