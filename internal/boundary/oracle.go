package boundary

// This file holds the paper's definitions and theorems that tests check
// the protocol against: Algorithm 2's placement of a block's information
// and Section 2.2's shadows, in which a destination beyond the block has
// no minimal path. The floods deposit that placement hop by hop, and
// Algorithm 3 reads a shadow through Demotes.

import (
	"ndmesh/internal/frame"
	"ndmesh/internal/grid"
)

// OnPlacement reports whether coordinate c belongs to block b's information
// placement: the frame shell (adjacent nodes, edge nodes, corners) or a
// boundary wall.
func OnPlacement(b grid.Box, c grid.Coord) bool {
	if _, ok := frame.Level(b, c); ok {
		return true
	}
	return OnWall(b, c)
}

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

// Placement enumerates every mesh node of block b's information placement,
// clipped to the mesh, in id order. This is the oracle the distributed
// protocol is verified against and the direct-deposit path used by the
// global-epoch test harness.
func Placement(shape *grid.Shape, b grid.Box) (ids []grid.NodeID) {
	bits := make([]uint64, (shape.NumNodes()+63)/64)
	markPlacement(shape, b, bits)
	for id := 0; id < shape.NumNodes(); id++ {
		if bits[id>>6]&(1<<(id&63)) != 0 {
			ids = append(ids, grid.NodeID(id))
		}
	}
	return ids
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
