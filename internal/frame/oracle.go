package frame

// This file holds the paper's definitions and theorems that tests check
// the protocol against: the rest of Definition 2's geometric
// classification, which the distributed Detector computes from neighbor
// announcements alone.

import "ndmesh/internal/grid"

// Level returns the frame level of coordinate c relative to the interior
// box b: the number of extreme coordinates. ok is false if c is not on the
// frame shell (some coordinate further than one unit outside, or all
// coordinates inside the interior).
func Level(b grid.Box, c grid.Coord) (level int, ok bool) {
	if len(c) != b.Dims() {
		return 0, false
	}
	for i := range c {
		switch {
		case c[i] == b.Lo[i]-1 || c[i] == b.Hi[i]+1:
			level++
		case c[i] >= b.Lo[i] && c[i] <= b.Hi[i]:
			// inside the span on this axis
		default:
			return 0, false
		}
	}
	if level == 0 {
		return 0, false // inside the block, not on the shell
	}
	return level, true
}

// SurfaceDirs returns the surface directions of frame node c: for every
// extreme coordinate, the direction pointing back toward the block span.
// For the paper's example block [3:5, 5:6, 3:4], the 3-level edge node
// (5,4,5) has surface directions {+Y, -Z}. The result is empty if c is not
// on the frame.
func SurfaceDirs(b grid.Box, c grid.Coord) grid.DirSet {
	var s grid.DirSet
	if len(c) != b.Dims() {
		return 0
	}
	for i := range c {
		switch c[i] {
		case b.Lo[i] - 1:
			s = s.Add(grid.DirPlus(i))
		case b.Hi[i] + 1:
			s = s.Add(grid.DirMinus(i))
		default:
			if c[i] < b.Lo[i] || c[i] > b.Hi[i] {
				return 0
			}
		}
	}
	return s
}

// IsAdjacent reports whether c is an adjacent node of block b (level 1).
func IsAdjacent(b grid.Box, c grid.Coord) bool {
	l, ok := Level(b, c)
	return ok && l == 1
}

// IsCorner reports whether c is an n-level corner of block b in an n-D mesh.
func IsCorner(b grid.Box, c grid.Coord) bool {
	l, ok := Level(b, c)
	return ok && l == b.Dims()
}

// Corners returns the 2^n n-level corners of the block, in binary order of
// (low/high) choices per axis. Corners outside the mesh are still returned;
// callers clip with shape.Contains (the paper assumes blocks never touch
// the outermost surface, so in model-conforming scenarios all corners
// exist).
func Corners(b grid.Box) []grid.Coord {
	n := b.Dims()
	out := make([]grid.Coord, 0, 1<<uint(n))
	for mask := 0; mask < 1<<uint(n); mask++ {
		c := make(grid.Coord, n)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				c[i] = b.Hi[i] + 1
			} else {
				c[i] = b.Lo[i] - 1
			}
		}
		out = append(out, c)
	}
	return out
}

// EachShellNode enumerates every node of the frame shell (the expanded box
// minus the interior), calling fn with a reused scratch coordinate and the
// node's level.
func EachShellNode(b grid.Box, fn func(c grid.Coord, level int)) {
	b.Expand(1).Each(func(c grid.Coord) {
		if l, ok := Level(b, c); ok {
			fn(c, l)
		}
	})
}
