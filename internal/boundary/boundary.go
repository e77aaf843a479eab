// Package boundary implements the boundary construction of the paper
// (Section 2.2, Section 3, Figure 3): the placement of a faulty block's
// information on the nodes that enclose the block's dangerous areas, the
// hop-by-hop distributed propagation that performs the placement, the merge
// of boundaries that intersect another block (Figure 3(d)), and the
// deletion (cancellation) of out-of-date boundaries after a block changes.
//
// Geometry. For block B with interior box [lo_1:hi_1, ..., lo_n:hi_n] and
// an axis j, the dangerous area ("shadow") on the − side of axis j is
//
//	{ x : x_l ∈ [lo_l:hi_l] for all l ≠ j, x_j < lo_j }.
//
// A message inside this shadow whose destination lies beyond the opposite
// (+j) adjacent surface with projections inside B's span on every other
// axis has no minimal path (the block disconnects all shortest paths). The
// boundary for surface S_{+j} encloses this shadow: it starts at the edges
// of the opposite adjacent surface S_{−j} and propagates in −j — the side
// walls of the shadow:
//
//	{ x : x_i = lo_i−1 or hi_i+1 (one lateral axis i ≠ j),
//	      x_l ∈ [lo_l:hi_l] for all l ∉ {i,j},  x_j < lo_j−1 }.
//
// In 3-D these walls are exactly the straight rays of Figure 3(a-c); in
// higher dimensions they are the (n−1)-dimensional boundary the paper
// refers to, and the propagation is a one-hop-per-round flood constrained
// to the wall region. Wall nodes (and the frame shell nodes, covered by the
// identification protocol's phase 4) hold the block record that Algorithm 3
// consults to demote a preferred direction into a preferred-but-detour
// direction.
package boundary

import (
	"ndmesh/internal/frame"
	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
)

// OnWall reports whether coordinate c lies on one of block b's boundary
// walls: exactly one axis at lo−1/hi+1 (the lateral wall axis), exactly one
// axis strictly beyond the frame shell (the shadow axis), and every other
// axis inside the block span.
func OnWall(b grid.Box, c grid.Coord) bool {
	if len(c) != b.Dims() {
		return false
	}
	extremes, beyond := 0, 0
	for i := range c {
		switch {
		case c[i] == b.Lo[i]-1 || c[i] == b.Hi[i]+1:
			extremes++
		case c[i] < b.Lo[i]-1 || c[i] > b.Hi[i]+1:
			beyond++
		default:
			// inside the span
		}
	}
	return extremes == 1 && beyond == 1
}

// OnPlacement reports whether coordinate c belongs to block b's information
// placement: the frame shell (adjacent nodes, edge nodes, corners) or a
// boundary wall.
func OnPlacement(b grid.Box, c grid.Coord) bool {
	if _, ok := frame.Level(b, c); ok {
		return true
	}
	return OnWall(b, c)
}

// Placement enumerates every mesh node of block b's information placement,
// clipped to the mesh. This is the oracle the distributed protocol is
// verified against and the direct-deposit path used by the global-epoch
// test harness.
func Placement(shape *grid.Shape, b grid.Box) []grid.NodeID {
	seen := grid.NewNodeSet(shape.NumNodes())
	add := func(id grid.NodeID) { seen.Add(id) }
	// Frame shell.
	b.Expand(1).EachID(shape, func(id grid.NodeID) {
		if _, ok := frame.Level(b, shape.CoordView(id)); ok {
			add(id)
		}
	})
	// Walls: for each shadow axis j and side, for each lateral axis i and
	// side, the wall box extends from just beyond the shell to the mesh
	// border.
	n := b.Dims()
	for j := 0; j < n; j++ {
		for _, sigmaNeg := range []bool{true, false} {
			for i := 0; i < n; i++ {
				if i == j {
					continue
				}
				for _, tauLow := range []bool{true, false} {
					wall := wallBox(shape, b, j, sigmaNeg, i, tauLow)
					if wall == nil {
						continue
					}
					wall.EachID(shape, add)
				}
			}
		}
	}
	return seen.IDs()
}

// wallBox returns the clipped wall box for shadow axis j (side − if
// sigmaNeg) and lateral axis i (side lo−1 if tauLow), or nil if empty.
func wallBox(shape *grid.Shape, b grid.Box, j int, sigmaNeg bool, i int, tauLow bool) *grid.Box {
	lo := b.Lo.Clone()
	hi := b.Hi.Clone()
	if tauLow {
		lo[i], hi[i] = b.Lo[i]-1, b.Lo[i]-1
	} else {
		lo[i], hi[i] = b.Hi[i]+1, b.Hi[i]+1
	}
	if sigmaNeg {
		lo[j], hi[j] = 0, b.Lo[j]-2
	} else {
		lo[j], hi[j] = b.Hi[j]+2, shape.Radix(j)-1
	}
	if lo[j] > hi[j] || lo[i] < 0 || hi[i] >= shape.Radix(i) {
		return nil
	}
	box := grid.Box{Lo: lo, Hi: hi}
	clipped, ok := box.Clip(shape)
	if !ok {
		return nil
	}
	return &clipped
}

// InShadow reports whether coordinate c lies in block b's dangerous area
// along some axis, returning that axis and whether c is on the negative
// side. The adjacent slab (x_j = lo_j−1 / hi_j+1 with all other axes in
// span) counts as part of the shadow: stepping onto it already forfeits
// minimality when the destination is trapped beyond the block.
func InShadow(b grid.Box, c grid.Coord) (axis int, negSide bool, ok bool) {
	if len(c) != b.Dims() {
		return 0, false, false
	}
	outAxis := -1
	for i := range c {
		if c[i] < b.Lo[i] || c[i] > b.Hi[i] {
			if outAxis >= 0 {
				return 0, false, false // outside the span on two axes
			}
			outAxis = i
		}
	}
	if outAxis < 0 {
		return 0, false, false // inside the block itself
	}
	return outAxis, c[outAxis] < b.Lo[outAxis], true
}

// Trapped reports whether a destination d is trapped beyond block b for a
// message in the (axis, negSide) shadow: the destination lies beyond the
// opposite adjacent surface and its projection on every other axis falls
// inside the block span — the "no minimal path" condition of Section 2.2.
func Trapped(b grid.Box, d grid.Coord, axis int, negSide bool) bool {
	for l := range d {
		if l == axis {
			continue
		}
		if d[l] < b.Lo[l] || d[l] > b.Hi[l] {
			return false
		}
	}
	if negSide {
		return d[axis] > b.Hi[axis]
	}
	return d[axis] < b.Lo[axis]
}

// Op selects what a construction does at each visited node.
type Op uint8

const (
	// Deposit adds the block record (boundary construction).
	Deposit Op = iota
	// Cancel removes records with the construction's box and an older
	// epoch (deletion of out-of-date boundaries).
	Cancel
)

// Construction is one in-flight boundary flood: a deposit of a freshly
// identified block's record over its placement, or a cancellation of a
// stale record over the old placement. Floods advance one hop per round
// from their seed nodes, constrained to the placement region; when a flood
// reaches a node holding a *different* block's record, the region is
// extended with that block's placement — the boundary merge of Fig. 3(d).
type Construction struct {
	// Box is the subject block (the record deposited or cancelled).
	Box grid.Box
	// Epoch orders this construction against others for the same region.
	Epoch uint32
	// Op is Deposit or Cancel.
	Op Op

	regions []grid.Box // placement bases: Box plus merge extensions
	// frontier/next are the double-buffered flood fronts; roundOne swaps
	// them so a long-lived construction allocates no per-round slice.
	frontier []grid.NodeID
	next     []grid.NodeID
	visited  grid.NodeSet
	// Rounds counts propagation rounds so far (contributes to c_i).
	Rounds int
}

// reuse (re-)initializes a fresh or recycled construction in place for a
// flood for box over the given seed nodes (which are processed in round 1),
// keeping every buffer's capacity: the box copies, the region bases, the
// frontier and the visited set all reuse prior storage.
func (c *Construction) reuse(box grid.Box, epoch uint32, op Op, seeds []grid.NodeID) {
	c.Box.Set(box)
	c.Epoch = epoch
	c.Op = op
	c.regions = c.regions[:0]
	c.addRegion(box)
	c.frontier = append(c.frontier[:0], seeds...)
	c.next = c.next[:0]
	c.visited.Clear()
	c.Rounds = 0
}

// addRegion appends a copy of b to the placement bases, reusing the box
// storage parked in the slice's spare capacity by earlier reuse cycles.
func (c *Construction) addRegion(b grid.Box) {
	if n := len(c.regions); n < cap(c.regions) {
		c.regions = c.regions[:n+1]
		c.regions[n].Set(b)
		return
	}
	c.regions = append(c.regions, b.Clone())
}

// Done reports whether the flood has exhausted its frontier.
func (c *Construction) Done() bool { return len(c.frontier) == 0 }

// inRegion reports whether coordinate cd belongs to any placement base.
func (c *Construction) inRegion(cd grid.Coord) bool {
	for _, b := range c.regions {
		if OnPlacement(b, cd) {
			return true
		}
	}
	return false
}

// extendRegion merges another block's placement into the flood region,
// deduplicating bases.
func (c *Construction) extendRegion(b grid.Box) {
	for _, r := range c.regions {
		if r.Equal(b) {
			return
		}
	}
	c.addRegion(b)
}

// Protocol runs all in-flight boundary constructions, one hop per round.
type Protocol struct {
	m     *mesh.Mesh  //meshvet:keep dependency, not per-trial state
	store *info.Store //meshvet:keep dependency, not per-trial state
	cons  []*Construction
	// spare is the free list of retired constructions; Start reuses them so
	// a fault process cycling blocks through the protocol allocates nothing
	// once warm.
	spare []*Construction
	// Hops counts total node visits across constructions (message cost).
	Hops int
}

// NewProtocol builds an empty boundary protocol over m and store.
func NewProtocol(m *mesh.Mesh, store *info.Store) *Protocol {
	return &Protocol{m: m, store: store}
}

// Reset abandons every in-flight construction so the protocol can be reused
// for a new trial; the constructions land on the free list.
func (p *Protocol) Reset() {
	p.spare = append(p.spare, p.cons...)
	p.cons = p.cons[:0]
	p.Hops = 0
}

// Start registers a construction for box seeded at the given nodes.
// Deposits seed from the block's frame (typically its corners and edge
// nodes, which received the record in identification phase 4); cancels
// seed from the node that detected the stale record. The seeds slice is
// copied, not retained.
func (p *Protocol) Start(box grid.Box, epoch uint32, op Op, seeds []grid.NodeID) *Construction {
	var c *Construction
	if n := len(p.spare); n > 0 {
		c = p.spare[n-1]
		p.spare = p.spare[:n-1]
	} else {
		c = &Construction{visited: grid.NewNodeSet(p.m.NumNodes())}
	}
	c.reuse(box, epoch, op, seeds)
	p.cons = append(p.cons, c)
	return c
}

// Quiescent reports whether no construction is in flight.
func (p *Protocol) Quiescent() bool { return len(p.cons) == 0 }

// Active returns the number of in-flight constructions.
func (p *Protocol) Active() int { return len(p.cons) }

// Round advances every construction one hop and retires the finished ones
// onto the free list. It returns the number of node visits performed (0 at
// quiescence).
func (p *Protocol) Round() int {
	visits := 0
	kept := p.cons[:0]
	for _, c := range p.cons {
		visits += p.roundOne(c)
		if !c.Done() {
			kept = append(kept, c)
		} else {
			p.spare = append(p.spare, c)
		}
	}
	p.cons = kept
	p.Hops += visits
	return visits
}

func (p *Protocol) roundOne(c *Construction) int {
	next := c.next[:0]
	visits := 0
	shape := p.m.Shape()
	numDirs := shape.NumDirs()
	for _, id := range c.frontier {
		if !c.visited.Add(id) {
			continue
		}
		// Only enabled nodes carry and forward boundary information; a
		// flood reaching a disabled/faulty node stops there (the block in
		// the way is handled by the merge rule below at its adjacent
		// nodes).
		if p.m.Status(id) != mesh.Enabled {
			continue
		}
		visits++
		switch c.Op {
		case Deposit:
			p.store.Add(id, info.Record{Box: c.Box, Epoch: c.Epoch})
		case Cancel:
			p.store.Remove(id, c.Box, c.Epoch)
		}
		// Merge (Fig. 3(d)): when the propagation reaches a node of
		// another block's *frame* — "the first adjacent node of the second
		// block it reaches" — the flood extends across that block's
		// placement, merging into its surfaces and boundary. Merely
		// crossing another block's distant wall is not an intersection
		// with the block and must not merge.
		cd := shape.CoordView(id)
		for _, r := range p.store.At(id) {
			if r.Box.Equal(c.Box) {
				continue
			}
			if _, onFrame := frame.Level(r.Box, cd); onFrame {
				c.extendRegion(r.Box)
			}
		}
		for d := 0; d < numDirs; d++ {
			nb := p.m.Neighbor(id, grid.Dir(d))
			if nb == grid.InvalidNode {
				continue
			}
			if c.visited.Has(nb) {
				continue
			}
			// A cancellation also follows the trail of nodes actually
			// holding the record: merged boundaries parked the record on
			// other blocks' placements, and those blocks may be gone by
			// deletion time, so geometry alone cannot retrace the deposit.
			if c.Op == Cancel && p.store.Has(nb, c.Box) {
				next = append(next, nb)
				continue
			}
			if c.inRegion(shape.CoordView(nb)) {
				next = append(next, nb)
			}
		}
	}
	c.next = c.frontier[:0]
	c.frontier = next
	c.Rounds++
	return visits
}
