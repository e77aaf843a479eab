// Package meshtest builds the shapes, boxes and meshes that tests across
// the module start from, in the style of net/http/httptest: only _test.go
// files import it. Production builds its geometry from checked input
// through grid.NewShape and mesh.New, so these panicking shorthands have
// no place in the packages it tests.
package meshtest

import (
	"fmt"

	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
)

// MustShape is grid.NewShape but panics on error.
func MustShape(dims ...int) *grid.Shape {
	s, err := grid.NewShape(dims...)
	if err != nil {
		panic(err)
	}
	return s
}

// NewBox builds a box from inclusive corner coordinates (copied); it panics
// if the corners have mismatched dimensions or Lo > Hi on some axis.
func NewBox(lo, hi grid.Coord) grid.Box {
	if len(lo) != len(hi) {
		panic("meshtest: box corners of different dimension")
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("meshtest: box corner order violated on axis %d: [%d:%d]", i, lo[i], hi[i]))
		}
	}
	return grid.Box{Lo: lo.Clone(), Hi: hi.Clone()}
}

// NewUniform builds an all-enabled k-ary n-D mesh, the paper's shape.
func NewUniform(n, k int) (*mesh.Mesh, error) {
	dims := make([]int, n)
	for i := range dims {
		dims[i] = k
	}
	shape, err := grid.NewShape(dims...)
	if err != nil {
		return nil, err
	}
	return mesh.New(shape), nil
}

// Count returns how many nodes of m have status s, read node by node.
func Count(m *mesh.Mesh, s mesh.Status) int {
	n := 0
	for id := 0; id < m.NumNodes(); id++ {
		if m.Status(grid.NodeID(id)) == s {
			n++
		}
	}
	return n
}

// Statuses returns a copy of every node's status, in id order.
func Statuses(m *mesh.Mesh) []mesh.Status {
	snap := make([]mesh.Status, m.NumNodes())
	for id := range snap {
		snap[id] = m.Status(grid.NodeID(id))
	}
	return snap
}

// Restore relabels every node of m to its status in snap (taken by
// Statuses on m) through SetStatus, the one writer of statuses, so the
// counters, the open sets and the version follow as they do for a fault.
func Restore(m *mesh.Mesh, snap []mesh.Status) {
	for id, s := range snap {
		m.SetStatus(grid.NodeID(id), s)
	}
}
