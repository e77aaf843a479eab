// Package safety implements Theorem 2 of the paper (from Wu [14]): the
// safe/unsafe classification of a source node with respect to a
// destination, plus an exhaustive minimal-path verifier used to validate
// the theorem experimentally.
//
// With the source translated to the origin and destination (u_1, ..., u_n),
// the source is safe iff no faulty block intersects the section [0:u_i]
// along each axis — the n axis-aligned segments through the source toward
// the destination's projections. A safe source is guaranteed a minimal path
// as long as no new fault occurs during the routing.
package safety

import (
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
)

// BlockIntersectsAxisSection reports whether block b intersects the section
// along the given axis between source s and destination d: the segment of
// nodes {s + t*sign(d_axis - s_axis)*e_axis}. A block intersects it iff its
// span covers s's coordinates on every other axis and overlaps the segment
// range on this axis.
func BlockIntersectsAxisSection(b grid.Box, s, d grid.Coord, axis int) bool {
	for l := range s {
		if l == axis {
			continue
		}
		if s[l] < b.Lo[l] || s[l] > b.Hi[l] {
			return false
		}
	}
	lo, hi := s[axis], d[axis]
	if lo > hi {
		lo, hi = hi, lo
	}
	return b.Hi[axis] >= lo && b.Lo[axis] <= hi
}

// SourceSafe implements Theorem 2: s is safe w.r.t. d iff no block
// intersects any of the n axis sections from s toward d's projections.
func SourceSafe(blocks []grid.Box, s, d grid.Coord) bool {
	for axis := range s {
		for _, b := range blocks {
			if BlockIntersectsAxisSection(b, s, d, axis) {
				return false
			}
		}
	}
	return true
}

// PathExists reports whether any path (not necessarily minimal) from s to d
// exists through enabled nodes, and returns its length (BFS hops). Used by
// Theorem 5 (unsafe sources route along a path of length L).
func PathExists(m *mesh.Mesh, s, d grid.NodeID) (length int, ok bool) {
	if m.Status(s) != mesh.Enabled || m.Status(d) != mesh.Enabled {
		return 0, false
	}
	if s == d {
		return 0, true
	}
	dist := map[grid.NodeID]int{s: 0}
	queue := []grid.NodeID{s}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range m.Neighbors(cur) {
			if nb == grid.InvalidNode || m.Status(nb) != mesh.Enabled {
				continue
			}
			if _, dup := dist[nb]; dup {
				continue
			}
			dist[nb] = dist[cur] + 1
			if nb == d {
				return dist[d], true
			}
			queue = append(queue, nb)
		}
	}
	return 0, false
}
