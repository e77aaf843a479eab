package grid

// This file holds the paper's definitions that the oracles of other
// packages are built on: Section 2.1's preferred directions, the frame box
// of Definition 3, and the walk over a box's nodes that enumerates a frame
// shell.

// PreferredDirs appends to dst the preferred directions for travelling from
// u toward d: the directions that strictly reduce Manhattan distance
// (Section 2.1). The remaining directions are spare.
func (s *Shape) PreferredDirs(u, d NodeID, dst []Dir) []Dir {
	for axis := 0; axis < len(s.dims); axis++ {
		cu, cd := s.Component(u, axis), s.Component(d, axis)
		switch {
		case cu < cd:
			dst = append(dst, DirPlus(axis))
		case cu > cd:
			dst = append(dst, DirMinus(axis))
		}
	}
	return dst
}

// Expand returns the box grown by r on every side, past the mesh border
// where it reaches it. Expand(1) turns a block's interior box into
// the frame box whose faces are the adjacent surfaces of Definition 3.
func (b Box) Expand(r int) Box {
	lo := make(Coord, len(b.Lo))
	hi := make(Coord, len(b.Lo))
	for i := range b.Lo {
		lo[i] = b.Lo[i] - r
		hi[i] = b.Hi[i] + r
	}
	return Box{Lo: lo, Hi: hi}
}

// Each invokes fn for every node coordinate inside the box, in row-major
// order. The callback receives a reused scratch coordinate: clone it to keep.
func (b Box) Each(fn func(Coord)) {
	c := b.Lo.Clone()
	for {
		fn(c)
		axis := 0
		for axis < len(c) {
			c[axis]++
			if c[axis] <= b.Hi[axis] {
				break
			}
			c[axis] = b.Lo[axis]
			axis++
		}
		if axis == len(c) {
			return
		}
	}
}
