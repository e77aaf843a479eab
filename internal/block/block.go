// Package block implements Algorithm 1 of the paper: the synchronous
// enabled/disabled/clean labeling that contains all faulty nodes in disjoint
// rectangular faulty blocks (Definitions 1 and 4), plus the centralized
// oracle that extracts the stabilized blocks directly.
//
// The protocol is reactive: after a fault or recovery event only the nodes
// whose neighborhood changed are re-evaluated, exactly as the paper's model
// requires ("only those affected nodes need to update fault information"),
// plus the transient Clean nodes, whose set the mesh keeps. One call to
// Stepper.Round is one synchronous round of status exchange and update; the
// number of rounds until quiescence (no candidate and no Clean node) after
// fault occurrence i is the paper's a_i.
package block

import (
	"sort"

	"ndmesh/internal/chunk"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
)

// Stepper advances the labeling protocol one synchronous round at a time so
// the execution engine can interleave it with identification and boundary
// rounds (λ rounds per step, Figure 7). Its only protocol state is the
// candidate set; which nodes are Clean it reads from the mesh.
type Stepper struct {
	m *mesh.Mesh //meshvet:keep fabric dependency, not per-trial state
	// cand holds the nodes to evaluate next round, besides the mesh's clean
	// nodes, which are evaluated every round (their clean age drives rule 4).
	cand grid.NodeSet
	// pending status commits for the synchronous update.
	changedIDs []grid.NodeID
	changedTo  []mesh.Status
	// affected tracks distinct nodes that ever changed in this epoch.
	affected grid.NodeSet
	// eval and agedCleans are Round's reusable work lists (candidates plus
	// clean nodes, and clean nodes whose age must advance).
	eval       []grid.NodeID //meshvet:keep scratch, re-sliced at each Round
	agedCleans []grid.NodeID //meshvet:keep scratch, re-sliced at each Round
}

// NewStepper builds a stepper over m. The mesh's current statuses are taken
// as the protocol state; call Seed after applying external events.
func NewStepper(m *mesh.Mesh) *Stepper {
	return &Stepper{
		m:        m,
		cand:     grid.NewNodeSet(m.NumNodes()),
		affected: grid.NewNodeSet(m.NumNodes()),
	}
}

// Reset discards all protocol state so the stepper can be reused for a new
// trial on the same (reset) mesh. Buffers are retained.
func (st *Stepper) Reset() {
	st.cand.Clear()
	st.changedIDs = st.changedIDs[:0]
	st.changedTo = st.changedTo[:0]
	st.affected.Clear()
}

// Seed registers externally-changed nodes (new faults, recoveries): the node
// itself and its neighbors become candidates for the next round.
func (st *Stepper) Seed(ids ...grid.NodeID) {
	for _, id := range ids {
		st.addWithNeighbors(id)
	}
}

// addWithNeighbors makes id and its neighbors candidates for the next round.
func (st *Stepper) addWithNeighbors(id grid.NodeID) {
	st.cand.Reserve(st.m.NumNodes())
	st.cand.Add(id)
	for _, nb := range st.m.Neighbors(id) {
		if nb != grid.InvalidNode {
			st.cand.Add(nb)
		}
	}
}

// Quiescent reports whether the protocol has no pending work: no candidates
// and no transient clean nodes on the mesh.
func (st *Stepper) Quiescent() bool { return st.cand.Len() == 0 && st.m.NumClean() == 0 }

// ResetAffected clears the affected-node accounting (typically at each new
// fault occurrence so Affected counts per-event locality).
func (st *Stepper) ResetAffected() { st.affected.Clear() }

// Affected returns the number of distinct nodes that changed status since
// the last ResetAffected.
func (st *Stepper) Affected() int { return st.affected.Len() }

// Round performs one synchronous round: every candidate node observes its
// neighbors' current statuses and applies rules 1-4 of Algorithm 1 (rule 5,
// recovery, is an external event applied via mesh.Recover + Seed). It
// returns the number of status transitions committed.
func (st *Stepper) Round() int {
	m := st.m
	st.changedIDs = st.changedIDs[:0]
	st.changedTo = st.changedTo[:0]
	if st.Quiescent() {
		return 0
	}
	// Evaluate: candidates plus all clean nodes (whose age must advance).
	// The lists hold distinct nodes, so the node count bounds each: the
	// first growth of each takes that bound.
	n := m.NumNodes()
	eval := append(chunk.Reserve(st.eval, n)[:0], st.cand.IDs()...)
	for _, id := range m.CleanIDs() {
		if !st.cand.Has(id) {
			eval = append(eval, id)
		}
	}
	st.eval = eval
	agedCleans := st.agedCleans[:0]
	for _, id := range eval {
		old := m.Status(id)
		next, stayClean := nextStatus(m, id, old)
		if stayClean {
			agedCleans = append(agedCleans, id)
		}
		if next != old {
			st.changedIDs = append(chunk.Reserve(st.changedIDs, n), id)
			st.changedTo = append(chunk.Reserve(st.changedTo, n), next)
		}
	}
	// Commit phase: all updates appear simultaneously (synchronous model).
	st.cand.Clear()
	for i, id := range st.changedIDs {
		to := st.changedTo[i]
		m.SetStatus(id, to)
		st.affected.Add(id)
		// The change is visible to neighbors next round; both the node and
		// its neighbors are candidates again.
		st.addWithNeighbors(id)
	}
	for _, id := range agedCleans {
		if m.Status(id) == mesh.Clean { // not overwritten by a commit
			m.BumpCleanAge(id)
		}
	}
	st.agedCleans = agedCleans
	return len(st.changedIDs)
}

// LastChanged returns the nodes whose status changed in the last Round; the
// slice is valid until the next Round call. The frame detector is seeded
// with exactly these nodes.
func (st *Stepper) LastChanged() []grid.NodeID { return st.changedIDs }

// nextStatus applies Definition 4's rules to node id given current
// neighborhood state. stayClean reports a clean node that remains clean this
// round (its age must be bumped at commit).
func nextStatus(m *mesh.Mesh, id grid.NodeID, old mesh.Status) (next mesh.Status, stayClean bool) {
	switch old {
	case mesh.Faulty:
		return old, false
	case mesh.Enabled:
		// Rule 1: enabled -> disabled on two bad neighbors in different dims.
		if badTwo, _ := m.BadNeighborDims(id); badTwo {
			return mesh.Disabled, false
		}
		return old, false
	case mesh.Disabled:
		// Rule 2: disabled -> clean with a clean neighbor and no two faulty
		// neighbors in different dimensions.
		if _, faultyTwo := m.BadNeighborDims(id); !faultyTwo && m.HasCleanNeighbor(id) {
			return mesh.Clean, false
		}
		return old, false
	case mesh.Clean:
		// Rule 3: clean -> disabled on two faulty neighbors in different dims.
		if _, faultyTwo := m.BadNeighborDims(id); faultyTwo {
			return mesh.Disabled, false
		}
		// Rule 4: clean -> enabled once all neighbors have seen the clean
		// status, i.e. after one full exchange round.
		if m.CleanAge(id) >= 1 {
			return mesh.Enabled, false
		}
		return old, true
	default:
		return old, false
	}
}

// Block is a stabilized faulty block extracted by the oracle: the maximal
// connected component of disabled and faulty nodes, stored as its interior
// box (the paper's [lo1:hi1, ...] notation).
type Block struct {
	// Box is the bounding box of the component.
	Box grid.Box
	// Nodes is the component's node count.
	Nodes int
	// Faults is the number of faulty (vs. disabled) nodes inside.
	Faults int
	// Solid reports whether the component fills Box exactly; Wu's model
	// guarantees this after stabilization when no fault touches the
	// outermost surface, and the property tests assert it.
	Solid bool
}

// Extract computes the faulty blocks of the current (stabilized) mesh by
// connected-component search over disabled∪faulty nodes. This is the
// centralized oracle the distributed identification protocol is verified
// against, and the information source for the global-information baseline
// router. Blocks are returned sorted by box origin for determinism.
func Extract(m *mesh.Mesh) []Block {
	var blocks []Block
	var o Oracle
	o.components(m, func(nodes []grid.NodeID) {
		box := grid.BoxAt(m.Shape().CoordView(nodes[0]))
		faults := 0
		for _, id := range nodes {
			if m.Status(id) == mesh.Faulty {
				faults++
			}
			box.Include(m.Shape().CoordView(id))
		}
		blocks = append(blocks, Block{
			Box:    box,
			Nodes:  len(nodes),
			Faults: faults,
			Solid:  len(nodes) == box.Volume(),
		})
	})
	sort.Slice(blocks, func(i, j int) bool {
		a, b := blocks[i].Box.Lo, blocks[j].Box.Lo
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return blocks
}

// Oracle is the centralized block oracle's component search with reusable
// buffers, for hot paths that query it repeatedly (the engine computes e_max
// after every applied fault event). The zero value is ready to use; all
// scratch storage is grown on first use and reused afterwards, so
// steady-state queries allocate nothing.
type Oracle struct {
	// visited is a plain flag per node, not a grid.NodeSet: the search scans
	// every node anyway, so an O(N) clear costs nothing extra.
	visited []bool
	queue   []grid.NodeID
	box     grid.Box
}

// MaxEdge returns e_max of Table 1, the longest edge over the blocks
// Extract(m) would return (0 when there are none), without materializing
// them: it tracks only each component's bounding-box extents.
func (o *Oracle) MaxEdge(m *mesh.Mesh) int {
	e := 0
	o.components(m, func(nodes []grid.NodeID) {
		o.box.SetAt(m.Shape().CoordView(nodes[0]))
		for _, id := range nodes {
			o.box.Include(m.Shape().CoordView(id))
		}
		e = max(e, o.box.MaxExtent())
	})
	return e
}

// components calls fn with the nodes of every maximal connected component
// of disabled∪faulty nodes, in order of each component's lowest node id. The
// slice is the oracle's queue, valid only during the call.
func (o *Oracle) components(m *mesh.Mesh, fn func(nodes []grid.NodeID)) {
	n := m.NumNodes()
	if cap(o.visited) < n {
		o.visited = make([]bool, n)
	} else {
		o.visited = o.visited[:n]
		clear(o.visited)
	}
	numDirs := m.Shape().NumDirs()
	for start := 0; start < n; start++ {
		id := grid.NodeID(start)
		if o.visited[start] || !m.Status(id).Bad() {
			continue
		}
		o.visited[start] = true
		o.queue = append(o.queue[:0], id)
		for qi := 0; qi < len(o.queue); qi++ {
			for d := 0; d < numDirs; d++ {
				nb := m.Neighbor(o.queue[qi], grid.Dir(d))
				if nb != grid.InvalidNode && !o.visited[nb] && m.Status(nb).Bad() {
					o.visited[nb] = true
					o.queue = append(o.queue, nb)
				}
			}
		}
		fn(o.queue)
	}
}
