// Package mesh implements the k-ary n-D mesh fabric: per-node fault status
// and the enabled/disabled/clean labeling state of Definitions 1 and 4.
//
// The mesh holds state only; the synchronous labeling rules (Algorithm 1)
// live in internal/block, the information constructions in internal/ident
// and internal/boundary, and the execution model in internal/engine.
//
// Per the paper, link faults are treated as node faults (Section 2.2), so
// the fabric tracks node status only.
//
// Status is the truth. Beside it the mesh keeps two derived structures: one
// word per node, the open set (Open), holding the directions whose neighbor
// exists and is Enabled — what a router's one-hop sensing amounts to; and
// the set of Clean nodes (CleanIDs), the labeling protocol's pending work.
// New fills them in for the all-enabled mesh and SetStatus — which Reset and
// Restore go through too — is the only other writer, as it is the only
// writer of a status.
package mesh

import (
	"fmt"

	"ndmesh/internal/grid"
)

// Status is the label of a node under the extended labeling scheme of
// Definition 4. After stabilization only Enabled, Disabled and Faulty
// remain; Clean is the transient label of recovered nodes and of disabled
// nodes released by a recovery.
type Status uint8

const (
	// Enabled marks a non-faulty node that participates in routing.
	Enabled Status = iota
	// Disabled marks a non-faulty node inside a faulty block: it has (or
	// had) two or more disabled/faulty neighbors along different dimensions.
	Disabled
	// Clean is the transient status of Definition 4: a node recovered from
	// faulty status, or a disabled node adjacent to a clean node that is no
	// longer forced disabled.
	Clean
	// Faulty marks a failed node.
	Faulty
)

// String renders the status name.
func (s Status) String() string {
	switch s {
	case Enabled:
		return "enabled"
	case Disabled:
		return "disabled"
	case Clean:
		return "clean"
	case Faulty:
		return "faulty"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Bad reports whether the status counts toward Definition 1's rule 1
// ("disabled or faulty neighbors").
func (s Status) Bad() bool { return s == Disabled || s == Faulty }

// Mesh is the fabric: shape plus per-node status, with a precomputed flat
// neighbor table so hot loops never recompute coordinate arithmetic.
type Mesh struct {
	shape *grid.Shape //meshvet:keep topology, immutable after New
	// status[id] is the current label of node id.
	status []Status
	// neighbors[id*2n+dir] is the neighbor of id in direction dir, or
	// grid.InvalidNode when the hop leaves the mesh.
	neighbors []grid.NodeID //meshvet:keep topology, immutable after New
	// cleanAge[id] counts synchronous rounds a node has held Clean status;
	// rule 4 fires only after neighbors have seen the clean status
	// (cleanAge >= 1). SetStatus zeroes it on entry to Clean and
	// internal/block advances it once per round.
	cleanAge []uint8
	// open[id] has bit d set iff id's neighbor along d exists and is Enabled.
	// Derived from status; written only by New and SetStatus.
	open []grid.DirSet
	// clean holds the Clean nodes in the order they became Clean. Derived
	// from status; written only by New and SetStatus.
	clean    grid.NodeSet
	faulty   int
	disabled int
	version  uint64
}

// New builds an all-enabled mesh of the given shape.
func New(shape *grid.Shape) *Mesh {
	n := shape.NumNodes()
	nd := shape.NumDirs()
	m := &Mesh{
		shape:     shape,
		status:    make([]Status, n),
		neighbors: make([]grid.NodeID, n*nd),
		cleanAge:  make([]uint8, n),
		open:      make([]grid.DirSet, n),
		clean:     grid.NewNodeSet(n),
	}
	for id := 0; id < n; id++ {
		for d := 0; d < nd; d++ {
			nb := shape.Neighbor(grid.NodeID(id), grid.Dir(d))
			m.neighbors[id*nd+d] = nb
			if nb != grid.InvalidNode {
				m.open[id] = m.open[id].Add(grid.Dir(d))
			}
		}
	}
	return m
}

// Shape returns the mesh geometry.
func (m *Mesh) Shape() *grid.Shape { return m.shape }

// NumNodes returns the node count.
func (m *Mesh) NumNodes() int { return len(m.status) }

// Status returns the current label of node id.
func (m *Mesh) Status(id grid.NodeID) Status { return m.status[id] }

// Neighbor returns the neighbor of id in direction d (InvalidNode off-mesh).
func (m *Mesh) Neighbor(id grid.NodeID, d grid.Dir) grid.NodeID {
	return m.neighbors[int(id)*m.shape.NumDirs()+int(d)]
}

// Open returns the directions along which id has an Enabled neighbor.
func (m *Mesh) Open(id grid.NodeID) grid.DirSet { return m.open[id] }

// Neighbors returns id's row of the neighbor table: entry d is
// Neighbor(id, d), grid.InvalidNode where the hop leaves the mesh. The slice
// is the mesh's own and read-only.
func (m *Mesh) Neighbors(id grid.NodeID) []grid.NodeID {
	nd := m.shape.NumDirs()
	return m.neighbors[int(id)*nd : (int(id)+1)*nd : (int(id)+1)*nd]
}

// SetStatus relabels a node, maintaining the aggregate counters, the clean
// set and, when the node crosses the Enabled boundary, its neighbors' open
// sets. It is the single mutation point used by both the fault schedule and
// the labeling protocol.
//
//meshvet:noalloc TestFaultProcessStepAllocFree
func (m *Mesh) SetStatus(id grid.NodeID, s Status) {
	old := m.status[id]
	if old == s {
		return
	}
	m.decr(id, old)
	m.incr(id, s)
	m.status[id] = s
	m.version++
	if (old == Enabled) != (s == Enabled) {
		for d, nb := range m.Neighbors(id) {
			if nb != grid.InvalidNode {
				m.open[nb] ^= 1 << uint(grid.Dir(d).Opposite()) // how nb reaches id
			}
		}
	}
	if s == Clean {
		m.cleanAge[id] = 0
	}
}

// Version increments on every status change; caches of derived global state
// (e.g. the oracle router's distance field) key off it.
func (m *Mesh) Version() uint64 { return m.version }

func (m *Mesh) decr(id grid.NodeID, s Status) {
	switch s {
	case Faulty:
		m.faulty--
	case Disabled:
		m.disabled--
	case Clean:
		m.clean.Remove(id)
	}
}

func (m *Mesh) incr(id grid.NodeID, s Status) {
	switch s {
	case Faulty:
		m.faulty++
	case Disabled:
		m.disabled++
	case Clean:
		m.clean.Add(id)
	}
}

// Fail marks a node faulty (a dynamic fault occurrence f_i).
func (m *Mesh) Fail(id grid.NodeID) { m.SetStatus(id, Faulty) }

// Recover applies rule 5 of Algorithm 1: a faulty node recovers and is
// labeled clean. Recovering a non-faulty node is a no-op.
func (m *Mesh) Recover(id grid.NodeID) {
	if m.status[id] == Faulty {
		m.SetStatus(id, Clean)
	}
}

// CleanAge returns the number of stabilization rounds node id has been
// Clean; meaningful only while Status(id) == Clean.
func (m *Mesh) CleanAge(id grid.NodeID) int { return int(m.cleanAge[id]) }

// BumpCleanAge increments the clean age (capped). Called once per labeling
// round by internal/block.
func (m *Mesh) BumpCleanAge(id grid.NodeID) {
	if m.cleanAge[id] < 0xff {
		m.cleanAge[id]++
	}
}

// NumClean returns the count of clean (transient) nodes; zero once the
// labeling is quiescent.
func (m *Mesh) NumClean() int { return m.clean.Len() }

// CleanIDs returns the clean nodes in the order they became Clean. The slice
// is the mesh's own: read-only, and valid until the next status change.
func (m *Mesh) CleanIDs() []grid.NodeID { return m.clean.IDs() }

// BadNeighborDims reports, for node id, whether it has disabled-or-faulty
// neighbors along at least two different dimensions (the trigger of rule 1)
// and whether it has faulty neighbors along at least two different
// dimensions (the trigger of rules 2/3/4).
func (m *Mesh) BadNeighborDims(id grid.NodeID) (badTwoDims, faultyTwoDims bool) {
	nDims := m.shape.Dims()
	base := int(id) * m.shape.NumDirs()
	badAxis, faultyAxis := -1, -1
	for axis := 0; axis < nDims; axis++ {
		bad, flt := false, false
		for side := 0; side < 2; side++ {
			nb := m.neighbors[base+2*axis+side]
			if nb == grid.InvalidNode {
				continue
			}
			switch m.status[nb] {
			case Faulty:
				bad, flt = true, true
			case Disabled:
				bad = true
			}
		}
		if bad {
			if badAxis >= 0 && badAxis != axis {
				badTwoDims = true
			}
			if badAxis < 0 {
				badAxis = axis
			}
		}
		if flt {
			if faultyAxis >= 0 && faultyAxis != axis {
				faultyTwoDims = true
			}
			if faultyAxis < 0 {
				faultyAxis = axis
			}
		}
		if badTwoDims && faultyTwoDims {
			return
		}
	}
	return
}

// HasCleanNeighbor reports whether some neighbor of id is Clean (rule 2).
func (m *Mesh) HasCleanNeighbor(id grid.NodeID) bool {
	for _, nb := range m.Neighbors(id) {
		if nb != grid.InvalidNode && m.status[nb] == Clean {
			return true
		}
	}
	return false
}

// Reset returns every node to Enabled, relabeling the ones that are not
// through SetStatus like any other relabel (for an Enabled node SetStatus is
// a no-op, and a mesh whose counters are all zero has none to relabel). The
// version counter advances (it never rewinds) even when nothing changed, so
// caches keyed on it — e.g. the oracle router's distance field — cannot
// survive a reset and serve stale topology.
func (m *Mesh) Reset() {
	if m.faulty+m.disabled+m.clean.Len() > 0 {
		for id, s := range m.status {
			if s != Enabled {
				m.SetStatus(grid.NodeID(id), Enabled)
			}
		}
	}
	clear(m.cleanAge)
	m.version++
}
