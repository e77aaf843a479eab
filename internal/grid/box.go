package grid

import (
	"fmt"
	"strings"
)

// Box is a closed axis-aligned box [Lo_1:Hi_1, ..., Lo_n:Hi_n] of nodes.
// Faulty blocks (Definition 1) are boxes; so are block sections identified in
// phase 2 of Algorithm 2 and the dangerous "shadow" regions boundaries guard.
type Box struct {
	Lo, Hi Coord
}

// BoxAt returns the degenerate single-node box at c.
func BoxAt(c Coord) Box { return Box{Lo: c.Clone(), Hi: c.Clone()} }

// Dims returns the dimensionality of the box.
func (b Box) Dims() int { return len(b.Lo) }

// Equal reports componentwise equality.
func (b Box) Equal(o Box) bool { return b.Lo.Equal(o.Lo) && b.Hi.Equal(o.Hi) }

// Set overwrites b in place with a copy of o, reusing b's backing arrays
// when they have the capacity.
func (b *Box) Set(o Box) {
	b.Lo = append(b.Lo[:0], o.Lo...)
	b.Hi = append(b.Hi[:0], o.Hi...)
}

// SetAt collapses b in place to the degenerate single-node box at c,
// reusing b's backing arrays (the pooled-object counterpart of BoxAt).
func (b *Box) SetAt(c Coord) {
	b.Lo = append(b.Lo[:0], c...)
	b.Hi = append(b.Hi[:0], c...)
}

// Extend grows b in place to the smallest box containing both b and o.
func (b *Box) Extend(o Box) {
	for i := range b.Lo {
		if o.Lo[i] < b.Lo[i] {
			b.Lo[i] = o.Lo[i]
		}
		if o.Hi[i] > b.Hi[i] {
			b.Hi[i] = o.Hi[i]
		}
	}
}

// ContainsOn reports whether value v lies within the box's extent on axis.
func (b Box) ContainsOn(axis, v int) bool { return v >= b.Lo[axis] && v <= b.Hi[axis] }

// Include grows the box in place so it contains c.
func (b *Box) Include(c Coord) {
	for i := range c {
		if c[i] < b.Lo[i] {
			b.Lo[i] = c[i]
		}
		if c[i] > b.Hi[i] {
			b.Hi[i] = c[i]
		}
	}
}

// Extent returns Hi-Lo+1 on the axis: the block's edge length there.
func (b Box) Extent(axis int) int { return b.Hi[axis] - b.Lo[axis] + 1 }

// MaxExtent returns the longest edge length over all axes; this is the
// per-block contribution to e_max in Table 1.
func (b Box) MaxExtent() int {
	m := 0
	for i := range b.Lo {
		if e := b.Extent(i); e > m {
			m = e
		}
	}
	return m
}

// Volume returns the node count of the box.
func (b Box) Volume() int {
	v := 1
	for i := range b.Lo {
		v *= b.Extent(i)
	}
	return v
}

// String renders the paper's block notation "[lo1:hi1, lo2:hi2, ...]".
func (b Box) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := range b.Lo {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%d:%d", b.Lo[i], b.Hi[i])
	}
	sb.WriteByte(']')
	return sb.String()
}
