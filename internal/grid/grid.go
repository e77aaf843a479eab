// Package grid provides the coordinate geometry of k-ary n-dimensional
// meshes: addresses, linearized node indices, directions, Manhattan
// distance, and axis-aligned boxes (the shape of faulty blocks).
//
// Everything in this package is pure geometry with no simulation state, so
// it is shared by the mesh fabric, the labeling/identification/boundary
// protocols, the routers, and the analytical bound calculators.
//
// Conventions (Section 2.1 of the paper):
//   - A node address is (u_1, u_2, ..., u_n) with 0 <= u_i <= k_i-1.
//     Mixed-radix shapes are supported; the paper's uniform k-ary mesh is
//     the special case with all k_i equal.
//   - Two nodes are connected iff their addresses differ by exactly one in
//     exactly one dimension (each dimension is a linear array, no wraparound).
//   - The distance D(u, v) is the Manhattan distance.
package grid

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Coord is an n-dimensional node address. Coords are small slices; hot paths
// use linear NodeIDs instead and convert only at the edges of the system.
type Coord []int

// Clone returns an independent copy of c.
func (c Coord) Clone() Coord {
	out := make(Coord, len(c))
	copy(out, c)
	return out
}

// Equal reports whether c and d have identical length and components.
func (c Coord) Equal(d Coord) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// String renders the coordinate as "(u1,u2,...,un)".
func (c Coord) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Manhattan returns the L1 distance |c-d|; it panics if dimensions differ.
func Manhattan(c, d Coord) int {
	if len(c) != len(d) {
		panic("grid: Manhattan distance between coords of different dimension")
	}
	sum := 0
	for i := range c {
		sum += abs(c[i] - d[i])
	}
	return sum
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// NodeID is the linearized index of a node in row-major order. IDs are dense
// in [0, NumNodes) which lets all per-node protocol state live in flat
// arrays — the layout every hot loop in the simulator iterates over.
type NodeID int32

// InvalidNode marks "no such node" (off-mesh neighbor slots).
const InvalidNode NodeID = -1

// Dir identifies one of the 2n mesh directions. Direction 2*a is the
// positive direction along axis a ("+a"), 2*a+1 is the negative direction
// ("-a"). The zero value is "+axis0".
type Dir int8

// InvalidDir marks "no direction" (e.g. the incoming direction of a message
// still at its source).
const InvalidDir Dir = -1

// DirPlus and DirMinus build a direction from an axis.
func DirPlus(axis int) Dir  { return Dir(2 * axis) }
func DirMinus(axis int) Dir { return Dir(2*axis + 1) }

// Axis returns the axis d moves along.
func (d Dir) Axis() int { return int(d) >> 1 }

// Positive reports whether d is the +axis direction.
func (d Dir) Positive() bool { return d&1 == 0 }

// Sign returns +1 for a positive direction, -1 for a negative one.
func (d Dir) Sign() int {
	if d.Positive() {
		return 1
	}
	return -1
}

// Opposite returns the reverse direction; the opposite of InvalidDir is
// InvalidDir.
func (d Dir) Opposite() Dir {
	if d < 0 {
		return InvalidDir
	}
	return d ^ 1
}

// String renders a direction as "+X"/"-Y" for the first three axes and
// "+d3", "-d4", ... beyond.
func (d Dir) String() string {
	if d < 0 {
		return "none"
	}
	sign := "+"
	if !d.Positive() {
		sign = "-"
	}
	switch d.Axis() {
	case 0:
		return sign + "X"
	case 1:
		return sign + "Y"
	case 2:
		return sign + "Z"
	default:
		return fmt.Sprintf("%sd%d", sign, d.Axis())
	}
}

// DirSet is a bitmask over the 2n directions of a mesh (n <= 16).
type DirSet uint32

// Add returns the set with d included.
func (s DirSet) Add(d Dir) DirSet { return s | 1<<uint(d) }

// Has reports whether d is in the set.
func (s DirSet) Has(d Dir) bool { return d >= 0 && s&(1<<uint(d)) != 0 }

// Remove returns the set with d excluded.
func (s DirSet) Remove(d Dir) DirSet { return s &^ (1 << uint(d)) }

// Count returns the number of directions in the set.
func (s DirSet) Count() int { return bits.OnesCount32(uint32(s)) }

// First returns the lowest direction in the set (NumDirs of a 16-D mesh, 32,
// for the empty set). Sets are walked in ascending direction order with
//
//	for r := s; r != 0; r &= r - 1 { d := r.First(); ... }
func (s DirSet) First() Dir { return Dir(bits.TrailingZeros32(uint32(s))) }

// Shape describes a k-ary n-D mesh: the radix of every dimension plus the
// precomputed strides used to linearize addresses and the coordinate table
// that decodes them back.
type Shape struct {
	dims    []int
	strides []int
	n       int // number of nodes
	// coords[id*Dims : (id+1)*Dims] is the address of node id, built once so
	// the routing hot path never pays a divmod per dimension (see CoordView).
	coords []int
	label  string // String's text
}

// MaxDims is the largest dimensionality a Shape may have (a DirSet holds 2n
// directions); per-axis scratch can be a [MaxDims]int on the stack.
const MaxDims = 16

// NewShape builds a Shape from per-dimension radices. Every radix must be
// at least 1; at least one dimension is required. The paper's k-ary n-D mesh
// is NewShape(k, k, ..., k) with n entries.
func NewShape(dims ...int) (*Shape, error) {
	label, n, err := Describe(dims...)
	if err != nil {
		return nil, err
	}
	s := &Shape{
		dims:    append([]int(nil), dims...),
		strides: make([]int, len(dims)),
		n:       n,
		label:   label,
	}
	stride := 1
	for i, k := range dims {
		s.strides[i] = stride
		stride *= k
	}
	s.coords = make([]int, s.n*len(dims))
	for id := 0; id < s.n; id++ {
		s.decode(NodeID(id), s.coords[id*len(dims):(id+1)*len(dims)])
	}
	return s, nil
}

// Describe checks dims as NewShape does, with the same errors, and returns
// the label (String) and node count of the shape they make, without
// building it: a caller that only names or counts a shape does not pay for
// its coordinate table.
func Describe(dims ...int) (label string, nodes int, err error) {
	if nodes, err = Nodes(dims...); err != nil {
		return "", 0, err
	}
	// Each radix is under 2^31 (10 digits) with its separator.
	var buf [11*MaxDims + 5]byte
	b := buf[:0]
	for i, k := range dims {
		if i > 0 {
			b = append(b, 'x')
		}
		b = strconv.AppendInt(b, int64(k), 10)
	}
	return string(append(b, " mesh"...)), nodes, nil
}

// Nodes is Describe without the label: it checks dims as NewShape does and
// returns the node count, allocating nothing unless dims fail.
func Nodes(dims ...int) (int, error) {
	if len(dims) == 0 {
		return 0, fmt.Errorf("grid: shape needs at least one dimension")
	}
	if len(dims) > MaxDims {
		return 0, fmt.Errorf("grid: at most %d dimensions supported, got %d", MaxDims, len(dims))
	}
	nodes := 1
	for i, k := range dims {
		if k < 1 {
			return 0, fmt.Errorf("grid: dimension %d has radix %d (< 1)", i, k)
		}
		if nodes > (1<<31-1)/k {
			return 0, fmt.Errorf("grid: shape %v exceeds 2^31-1 nodes", dims)
		}
		nodes *= k
	}
	return nodes, nil
}

// Dims returns the number of dimensions n.
func (s *Shape) Dims() int { return len(s.dims) }

// Radix returns k_axis, the extent of the given dimension.
func (s *Shape) Radix(axis int) int { return s.dims[axis] }

// Stride returns the id distance between neighbors along the given axis
// (axis 0 has stride 1: a row along it is a run of adjacent ids).
func (s *Shape) Stride(axis int) int { return s.strides[axis] }

// Radices returns a copy of the per-dimension extents.
func (s *Shape) Radices() []int { return append([]int(nil), s.dims...) }

// NumNodes returns the total node count N = k_1 * ... * k_n.
func (s *Shape) NumNodes() int { return s.n }

// NumDirs returns 2n, the number of mesh directions.
func (s *Shape) NumDirs() int { return 2 * len(s.dims) }

// Diameter returns the network diameter sum_i (k_i - 1); for the uniform
// k-ary n-D mesh this is (k-1)*n as in Section 2.1.
func (s *Shape) Diameter() int {
	d := 0
	for _, k := range s.dims {
		d += k - 1
	}
	return d
}

// Contains reports whether c is a valid address of the mesh.
func (s *Shape) Contains(c Coord) bool {
	if len(c) != len(s.dims) {
		return false
	}
	for i, v := range c {
		if v < 0 || v >= s.dims[i] {
			return false
		}
	}
	return true
}

// Index linearizes an address. It panics if c is outside the mesh: callers
// validate with Contains first when handling untrusted coordinates. (The
// messages format c.String(), not c: boxing the slice would make every
// caller's coordinate escape to the heap.)
func (s *Shape) Index(c Coord) NodeID {
	if len(c) != len(s.dims) {
		panic(fmt.Sprintf("grid: coord %s has %d dims, shape has %d", c.String(), len(c), len(s.dims)))
	}
	id := 0
	for i, v := range c {
		if v < 0 || v >= s.dims[i] {
			panic(fmt.Sprintf("grid: coord %s outside shape %v", c.String(), s.dims))
		}
		id += v * s.strides[i]
	}
	return NodeID(id)
}

// decode recovers the address of node id by divmod into dst. It is the
// builder of NewShape's coordinate table; everything else reads CoordView.
func (s *Shape) decode(id NodeID, dst Coord) {
	rem := int(id)
	for i := len(s.dims) - 1; i >= 0; i-- {
		dst[i] = rem / s.strides[i]
		rem %= s.strides[i]
	}
}

// CoordView returns the address of node id as a read-only view into the
// shape's coordinate table: no decode, no copy. Callers must not modify it.
// It is the one read accessor for a node's address; code that *builds* a
// coordinate (a mapped destination, a block's corners) owns its own buffer.
func (s *Shape) CoordView(id NodeID) Coord {
	d := len(s.dims)
	return s.coords[int(id)*d : int(id)*d+d : int(id)*d+d]
}

// CoordOf is a fresh copy of CoordView, for callers that keep or modify it.
func (s *Shape) CoordOf(id NodeID) Coord { return s.CoordView(id).Clone() }

// Component returns coordinate `axis` of node id without materializing the
// whole address.
func (s *Shape) Component(id NodeID, axis int) int {
	return (int(id) / s.strides[axis]) % s.dims[axis]
}

// Neighbor returns the node one hop from id in direction d, or InvalidNode
// if that hop leaves the mesh.
func (s *Shape) Neighbor(id NodeID, d Dir) NodeID {
	axis := d.Axis()
	v := s.Component(id, axis)
	if d.Positive() {
		if v+1 >= s.dims[axis] {
			return InvalidNode
		}
		return id + NodeID(s.strides[axis])
	}
	if v == 0 {
		return InvalidNode
	}
	return id - NodeID(s.strides[axis])
}

// Distance returns the Manhattan distance between two node ids.
func (s *Shape) Distance(a, b NodeID) int { return Manhattan(s.CoordView(a), s.CoordView(b)) }

// OnBorder reports whether the node lies on the outermost surface of the
// mesh (some coordinate is 0 or k_i-1). The paper's model assumes no fault
// occurs on the outermost surface; boundary rays terminate there.
func (s *Shape) OnBorder(id NodeID) bool {
	for i := range s.dims {
		v := s.Component(id, i)
		if v == 0 || v == s.dims[i]-1 {
			return true
		}
	}
	return false
}

// String renders the shape as "k1 x k2 x ... x kn mesh" (written without
// spaces: "8x8 mesh"), a label NewShape builds once.
func (s *Shape) String() string { return s.label }
