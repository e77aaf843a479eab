// Package traffic is the contention-aware load-generation and measurement
// subsystem: synthetic injection patterns (uniform-random, transpose,
// bit-complement, bit-reversal, hotspot, nearest-neighbor), open-loop
// arrival processes (Bernoulli, Poisson, bursty on/off), the three
// workload modes behind the Injector interface — the open-loop Generator,
// the closed-loop bounded-window ClosedLoop source, and the TracePlayer
// replaying a recorded workload Trace — and the warmup/measure/drain
// phase accounting that turns per-flight latencies into
// latency-throughput points.
//
// Everything draws from explicit rng.Source streams, so a load run is
// bit-reproducible: the same seed produces the same injection sequence on
// every machine and at every worker count (and a trace replay consumes no
// randomness at all). Patterns generalize the classic k-ary n-cube
// workloads to mixed-radix meshes: coordinatewise complement and digit
// reversal replace the power-of-two bit tricks, and transpose rotates
// (and rescales) the address across dimensions, so every generated
// endpoint is in shape for any radix vector.
//
// Reset contracts: Process.Reset(numNodes) sizes and rewinds per-node
// arrival state between runs; Collector.Reset(phases) rewinds the
// measurement accounting keeping its sample capacity. Sources draw in
// node order within a step and keep per-node state in flat arrays, so
// steady-state injection allocates nothing.
package traffic

import (
	"fmt"
	"math/bits"
	"slices"

	"ndmesh/internal/grid"
	"ndmesh/internal/rng"
)

// Pattern maps an injecting source node to a destination. Implementations
// must return an in-shape destination different from src; they may consume
// rng draws (uniform, hotspot, neighbor) or be deterministic functions of
// the source address (transpose, complement, reversal) that fall back to a
// uniform redraw when the mapping would be a fixed point.
type Pattern interface {
	// Dest returns the destination for a message injected at src.
	Dest(src grid.NodeID, r *rng.Source) grid.NodeID
}

// patternNames lists the patterns ByName accepts, in display order.
var patternNames = [...]string{"uniform", "transpose", "complement", "bitrev", "hotspot", "neighbor"}

// PatternNames lists the patterns ByName accepts, in display order.
func PatternNames() []string { return slices.Clone(patternNames[:]) }

// ByName builds a pattern over the given shape. Hotspot uses the mesh
// center as the hot node with DefaultHotspotFrac of the traffic.
func ByName(shape *grid.Shape, name string) (Pattern, error) {
	if err := CheckPattern(shape.NumNodes(), name); err != nil {
		return nil, err
	}
	switch name {
	case "transpose":
		return NewTranspose(shape), nil
	case "complement":
		return NewComplement(shape), nil
	case "bitrev":
		return NewBitReversal(shape), nil
	case "hotspot":
		return NewHotspot(shape, DefaultHotspotFrac), nil
	case "neighbor":
		return NewNeighbor(shape), nil
	}
	return NewUniform(shape), nil // "uniform", the one name left
}

// CheckPattern returns the error ByName returns for the named pattern over
// a shape of nodes nodes, and nil where ByName builds it, building nothing.
func CheckPattern(nodes int, name string) error {
	if nodes < 2 {
		return fmt.Errorf("traffic: a %d-node shape is too small for traffic patterns", nodes)
	}
	if !slices.Contains(patternNames[:], name) {
		return fmt.Errorf("traffic: unknown pattern %q", name)
	}
	return nil
}

// Patterns hands out one pattern per name over one shape, built by ByName
// on its first request: a pattern keeps no state from one Dest to the next
// (a mapped pattern's coordinate is scratch every Dest overwrites), so a
// pooled load cell reuses the one its simulation built. The zero value is
// ready to use.
type Patterns struct {
	shape *grid.Shape
	built [len(patternNames)]Pattern
}

// ByName returns ByName(shape, name), built once per name while shape stays
// the same.
func (ps *Patterns) ByName(shape *grid.Shape, name string) (Pattern, error) {
	if ps.shape != shape {
		*ps = Patterns{shape: shape}
	}
	i := slices.Index(patternNames[:], name)
	if i < 0 || ps.built[i] == nil {
		p, err := ByName(shape, name)
		if err != nil {
			return nil, err
		}
		ps.built[i] = p
	}
	return ps.built[i], nil
}

// uniformDest draws a uniform destination different from src.
func uniformDest(shape *grid.Shape, src grid.NodeID, r *rng.Source) grid.NodeID {
	n := shape.NumNodes()
	for {
		d := grid.NodeID(r.Intn(n))
		if d != src {
			return d
		}
	}
}

// Uniform sends each message to an independently uniform destination.
type Uniform struct{ shape *grid.Shape }

// NewUniform builds the uniform-random pattern.
func NewUniform(shape *grid.Shape) *Uniform { return &Uniform{shape: shape} }

// Dest implements Pattern.
func (p *Uniform) Dest(src grid.NodeID, r *rng.Source) grid.NodeID {
	return uniformDest(p.shape, src, r)
}

// mapped is the shared core of the deterministic address-permutation
// patterns: it applies fn to src's address (a read-only view), building the
// destination in its one scratch coordinate, and falls back to a uniform
// redraw when the permutation fixes src.
type mapped struct {
	shape *grid.Shape
	dst   grid.Coord
}

func newMapped(shape *grid.Shape) mapped {
	return mapped{shape: shape, dst: make(grid.Coord, shape.Dims())}
}

func (m *mapped) dest(src grid.NodeID, r *rng.Source, fn func(sc, dc grid.Coord)) grid.NodeID {
	fn(m.shape.CoordView(src), m.dst)
	d := m.shape.Index(m.dst)
	if d == src {
		return uniformDest(m.shape, src, r)
	}
	return d
}

// Transpose rotates the address across dimensions — the mixed-radix
// generalization of the 2-D (x,y) -> (y,x) transpose workload — rescaling
// each component to the radix of its new axis so the result stays in shape.
type Transpose struct{ mapped }

// NewTranspose builds the transpose pattern.
func NewTranspose(shape *grid.Shape) *Transpose { return &Transpose{newMapped(shape)} }

// Dest implements Pattern.
func (p *Transpose) Dest(src grid.NodeID, r *rng.Source) grid.NodeID {
	shape := p.shape
	return p.dest(src, r, func(sc, dc grid.Coord) {
		n := shape.Dims()
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			// Rescale axis j's component to axis i's radix; since
			// sc[j] <= k_j-1 the floor product stays below k_i.
			dc[i] = sc[j] * shape.Radix(i) / shape.Radix(j)
		}
	})
}

// Complement sends to the coordinatewise complement (k_i-1-u_i), the
// any-radix generalization of bit-complement: all traffic crosses the mesh
// center, the canonical bisection-stress workload.
type Complement struct{ mapped }

// NewComplement builds the complement pattern.
func NewComplement(shape *grid.Shape) *Complement { return &Complement{newMapped(shape)} }

// Dest implements Pattern.
func (p *Complement) Dest(src grid.NodeID, r *rng.Source) grid.NodeID {
	shape := p.shape
	return p.dest(src, r, func(sc, dc grid.Coord) {
		for i := range dc {
			dc[i] = shape.Radix(i) - 1 - sc[i]
		}
	})
}

// BitReversal reverses each component's bits within the axis' bit width;
// components whose reversal overflows the radix (non-power-of-two axes)
// fall back to the complement on that axis, keeping the address in shape.
type BitReversal struct{ mapped }

// NewBitReversal builds the bit-reversal pattern.
func NewBitReversal(shape *grid.Shape) *BitReversal { return &BitReversal{newMapped(shape)} }

// Dest implements Pattern.
func (p *BitReversal) Dest(src grid.NodeID, r *rng.Source) grid.NodeID {
	shape := p.shape
	return p.dest(src, r, func(sc, dc grid.Coord) {
		for i := range dc {
			k := shape.Radix(i)
			width := bits.Len(uint(k - 1))
			if width == 0 {
				dc[i] = 0
				continue
			}
			rev := int(bits.Reverse32(uint32(sc[i])) >> (32 - width))
			if rev >= k {
				rev = k - 1 - sc[i]
			}
			dc[i] = rev
		}
	})
}

// DefaultHotspotFrac is the fraction of traffic aimed at the hot node when
// ByName builds a hotspot pattern.
const DefaultHotspotFrac = 0.2

// Hotspot aims a fixed fraction of the traffic at one hot node (uniform
// otherwise), the classic contended-server workload.
type Hotspot struct {
	shape *grid.Shape
	// Hot is the hot node; Frac the probability a message targets it.
	Hot  grid.NodeID
	Frac float64
}

// NewHotspot builds a hotspot pattern aimed at the mesh center.
func NewHotspot(shape *grid.Shape, frac float64) *Hotspot {
	c := make(grid.Coord, shape.Dims())
	for i := range c {
		c[i] = shape.Radix(i) / 2
	}
	return &Hotspot{shape: shape, Hot: shape.Index(c), Frac: frac}
}

// Dest implements Pattern.
func (p *Hotspot) Dest(src grid.NodeID, r *rng.Source) grid.NodeID {
	if r.Bool(p.Frac) && p.Hot != src {
		return p.Hot
	}
	return uniformDest(p.shape, src, r)
}

// Neighbor sends each message one hop away (uniform over the in-mesh
// neighbors), the locality extreme of the synthetic workloads.
type Neighbor struct{ shape *grid.Shape }

// NewNeighbor builds the nearest-neighbor pattern.
func NewNeighbor(shape *grid.Shape) *Neighbor { return &Neighbor{shape: shape} }

// Dest implements Pattern.
func (p *Neighbor) Dest(src grid.NodeID, r *rng.Source) grid.NodeID {
	valid := 0
	for d := 0; d < p.shape.NumDirs(); d++ {
		if p.shape.Neighbor(src, grid.Dir(d)) != grid.InvalidNode {
			valid++
		}
	}
	pick := r.Intn(valid)
	for d := 0; d < p.shape.NumDirs(); d++ {
		if nb := p.shape.Neighbor(src, grid.Dir(d)); nb != grid.InvalidNode {
			if pick == 0 {
				return nb
			}
			pick--
		}
	}
	panic("traffic: neighbor pattern found no in-mesh neighbor")
}

// DrawLongHaulPair draws a (src, dst) endpoint pair for the experiment
// sweeps: distinct interior nodes (off the outermost surface) at distance
// at least half the diameter. This is the historical drawPair of the
// experiment harness, moved here verbatim so every sweep and the traffic
// subsystem share one endpoint generator; the rng consumption sequence is
// part of the sweeps' byte-identical determinism contract and must not
// change. A shape whose interior holds no such pair (the farthest interior
// nodes lie sum_i (k_i - 3) apart: 4x4, 3x3x3) is an error, found before
// any draw.
func DrawLongHaulPair(shape *grid.Shape, r *rng.Source) (src, dst grid.NodeID, err error) {
	minD := shape.Diameter() / 2
	span := 0
	for i := range shape.Dims() {
		if k := shape.Radix(i); k >= 3 {
			span += k - 3
		} else {
			span = -1 // no interior at all
			break
		}
	}
	if span < max(minD, 1) {
		return 0, 0, fmt.Errorf("traffic: mesh %s has no two interior nodes at distance >= %d (half its diameter)", shape, minD)
	}
	for {
		s := grid.NodeID(r.Intn(shape.NumNodes()))
		d := grid.NodeID(r.Intn(shape.NumNodes()))
		if s == d || shape.OnBorder(s) || shape.OnBorder(d) {
			continue
		}
		if shape.Distance(s, d) >= minD {
			return s, d, nil
		}
	}
}
