// Package frame implements Definition 2 of the paper: the classification of
// the enabled nodes around a faulty block into adjacent nodes, q-level edge
// nodes and q-level corners, each with its surface directions (the faces of
// the block it looks onto).
//
// A block with interior box [lo_1:hi_1, ..., lo_n:hi_n] is surrounded by a
// one-node-thick shell (the expanded box minus the interior). A shell node
// with exactly q coordinates at lo-1 or hi+1 ("extreme") and the remaining
// n-q coordinates inside the interior span is a q-level corner; a node with
// n-1 extreme coordinates is an n-level edge node, and the 2^n nodes with
// all coordinates extreme are the n-level corners (Definition 2, unrolled
// recursively). Level-1 nodes are the adjacent nodes: they have exactly one
// neighbor inside the block.
//
// The package provides both the geometric classification (Level here, the
// rest of Definition 2 in oracle.go for the tests) and a distributed
// detector that computes each node's level and surface directions from
// neighbor announcements only, one hop per round — step 2 of Algorithm 2.
package frame

import (
	"ndmesh/internal/chunk"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
)

// Announcement is one frame role a node announces: a believed level and the
// surface directions of that role. A node may hold several announcements at
// once — for example, an adjacent node of one block that is simultaneously
// an edge node of another block whose frame touches it. Definition 2's
// classification is per block, and keeping one record per role is what
// makes corner detection robust when frames of distinct blocks meet.
type Announcement struct {
	Level uint8
	Dirs  grid.DirSet
}

// Detector computes frame levels distributively: each round, every candidate
// node derives its announcements from its neighbors' previous announcements
// and its direct observation of bad neighbors. Level-q information therefore
// stabilizes q rounds after the labeling does, exactly as step 2 of
// Algorithm 2 requires. The detector is reactive: only nodes near status
// changes are re-evaluated.
type Detector struct {
	m *mesh.Mesh //meshvet:keep fabric dependency, not per-trial state
	// ann[id] holds the node's current announcements, sorted by
	// (Level, Dirs) with no duplicates, in a block carved from lists; a
	// node whose announcements outgrow it moves to a larger block.
	ann   [][]Announcement
	lists chunk.Carver[Announcement] //meshvet:keep carves blocks the lists keep across Reset
	// cand holds the nodes to re-evaluate next round.
	cand grid.NodeSet
	// pending* are the per-round commit arena: announcements recomputed
	// this round accumulate in one flat buffer (pending), with pendingIDs
	// and pendingOff delimiting each node's range. The arena is reused
	// every round, so a round allocates only when announcements outgrow
	// all previous rounds' capacity. pendingIDs, the nodes whose
	// announcements the last Round changed, is also what Changed returns;
	// every Round empties it first.
	pending    []Announcement //meshvet:keep commit arena, re-sliced at each Round
	pendingIDs []grid.NodeID
	pendingOff []int //meshvet:keep commit arena, re-sliced at each Round
}

// NewDetector builds a detector over m with empty announcements.
func NewDetector(m *mesh.Mesh) *Detector {
	n := m.NumNodes()
	return &Detector{
		m:     m,
		ann:   make([][]Announcement, n),
		lists: chunk.New[Announcement](n),
		cand:  grid.NewNodeSet(n),
	}
}

// Announcement returns the highest-level announcement of node id (the zero
// Announcement when the node has none). Protocol code that needs a
// specific role uses HasRecord instead.
func (d *Detector) Announcement(id grid.NodeID) Announcement {
	rs := d.ann[id]
	if len(rs) == 0 {
		return Announcement{}
	}
	return rs[len(rs)-1] // sorted ascending by level
}

// Records returns all announcements of node id (owned by the detector).
func (d *Detector) Records(id grid.NodeID) []Announcement { return d.ann[id] }

// HasRecord reports whether node id currently announces exactly the given
// role.
func (d *Detector) HasRecord(id grid.NodeID, level int, dirs grid.DirSet) bool {
	for _, a := range d.ann[id] {
		if int(a.Level) == level && a.Dirs == dirs {
			return true
		}
	}
	return false
}

// Seed marks nodes (and their neighbors) for re-evaluation after status
// changes.
func (d *Detector) Seed(ids ...grid.NodeID) {
	for _, id := range ids {
		d.addWithNeighbors(id)
	}
}

// addWithNeighbors makes id and its neighbors candidates for the next round.
func (d *Detector) addWithNeighbors(id grid.NodeID) {
	d.cand.Reserve(d.m.NumNodes())
	d.cand.Add(id)
	for _, nb := range d.m.Neighbors(id) {
		if nb != grid.InvalidNode {
			d.cand.Add(nb)
		}
	}
}

// Quiescent reports whether no candidates remain.
func (d *Detector) Quiescent() bool { return d.cand.Len() == 0 }

// Reset discards all announcements and candidates so the detector can be
// reused for a new trial on the same (reset) mesh, retaining every buffer.
func (d *Detector) Reset() {
	for i := range d.ann {
		if d.ann[i] != nil {
			d.ann[i] = d.ann[i][:0]
		}
	}
	d.cand.Clear()
	d.pendingIDs = d.pendingIDs[:0]
}

// Round performs one synchronous announcement-update round and returns the
// number of nodes whose announcements changed. Recomputed announcements are
// staged in the reusable arena and committed together, preserving the
// synchronous model (every compute sees only last round's announcements).
func (d *Detector) Round() int {
	d.pendingIDs = d.pendingIDs[:0]
	if d.cand.Len() == 0 {
		return 0
	}
	// The node lists hold distinct candidates, so the node count bounds
	// each (pendingOff holds one more): the first growth of each takes
	// that bound.
	n := d.m.NumNodes()
	d.pending = d.pending[:0]
	d.pendingOff = chunk.Reserve(d.pendingOff, n+1)[:0]
	for _, id := range d.cand.IDs() {
		start := len(d.pending)
		d.pending = d.compute(id, d.pending)
		if annsEqual(d.pending[start:], d.ann[id]) {
			d.pending = d.pending[:start]
			continue
		}
		d.pendingIDs = append(chunk.Reserve(d.pendingIDs, n), id)
		d.pendingOff = append(d.pendingOff, start)
	}
	d.pendingOff = append(d.pendingOff, len(d.pending))
	d.cand.Clear()
	for k, id := range d.pendingIDs {
		anns := d.pending[d.pendingOff[k]:d.pendingOff[k+1]]
		d.ann[id] = append(d.lists.Grow(d.ann[id][:0], len(anns)), anns...)
		d.addWithNeighbors(id)
	}
	return len(d.pendingIDs)
}

func annsEqual(a, b []Announcement) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Changed returns the nodes whose announcement changed in the last Round.
// The slice is valid until the next Round call.
func (d *Detector) Changed() []grid.NodeID { return d.pendingIDs }

// compute derives node id's announcements from direct bad-neighbor
// observation (level 1) and neighbors' current announcements (level k from
// k-1): node u is a k-level corner with surface direction set S (|S| = k)
// iff for every direction dir in S, the neighbor of u in direction dir
// announces level k-1 with direction set S minus dir. This is Definition
// 2's recursion evaluated from local information only. A node announces
// every role it satisfies — one per adjacent block direction at level 1,
// plus any corner roles derived from neighbor announcements.
//
// The announcements are appended to buf (the round arena) and the extended
// buffer is returned; only the appended tail belongs to this node.
func (d *Detector) compute(id grid.NodeID, buf []Announcement) []Announcement {
	m := d.m
	if m.Status(id) != mesh.Enabled {
		return buf // only enabled nodes are frame nodes
	}
	start := len(buf)
	add := func(a Announcement) {
		for _, have := range buf[start:] {
			if have == a {
				return
			}
		}
		buf = append(buf, a)
	}
	// Level 1: adjacent node — one record per bad-neighbor direction
	// (each direction is evidence of a distinct block face; a convex block
	// never presents two faces to one enabled node).
	nbs := m.Neighbors(id)
	for dir, nb := range nbs {
		if nb != grid.InvalidNode && m.Status(nb).Bad() {
			add(Announcement{Level: 1, Dirs: grid.DirSet(0).Add(grid.Dir(dir))})
		}
	}
	// Level k > 1: candidate sets are derived from each level-(k-1) record
	// of a neighbor v in direction dir as S = v.Dirs + dir, then verified
	// against every direction of S. Records from other blocks' frames
	// simply fail verification without masking genuine roles.
	for level := 2; level <= m.Shape().Dims(); level++ {
		for dv, nb := range nbs {
			if nb == grid.InvalidNode {
				continue
			}
			dir := grid.Dir(dv)
			for _, a := range d.ann[nb] {
				if int(a.Level) != level-1 || a.Dirs.Has(dir) || a.Dirs.Has(dir.Opposite()) {
					continue
				}
				cand := a.Dirs.Add(dir)
				if cand.Count() != level {
					continue
				}
				if d.consistentCorner(id, cand, level) {
					add(Announcement{Level: uint8(level), Dirs: cand})
				}
			}
		}
	}
	sortAnnouncements(buf[start:])
	return buf
}

// sortAnnouncements orders by (Level, Dirs). Announcement lists are tiny (at
// most a handful of roles per node), so an in-place insertion sort avoids
// the allocation of sort.Slice on the hot round path.
func sortAnnouncements(a []Announcement) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0; j-- {
			if a[j-1].Level < a[j].Level ||
				(a[j-1].Level == a[j].Level && a[j-1].Dirs <= a[j].Dirs) {
				break
			}
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// consistentCorner verifies Definition 2's recursion for node id with the
// candidate surface-direction set: every neighbor along a candidate
// direction must announce the complementary set at the level below.
func (d *Detector) consistentCorner(id grid.NodeID, dirs grid.DirSet, level int) bool {
	nd := d.m.Shape().NumDirs()
	for dv := 0; dv < nd; dv++ {
		dir := grid.Dir(dv)
		if !dirs.Has(dir) {
			continue
		}
		nb := d.m.Neighbor(id, dir)
		if nb == grid.InvalidNode || !d.HasRecord(nb, level-1, dirs.Remove(dir)) {
			return false
		}
	}
	return true
}
