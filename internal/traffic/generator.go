package traffic

import (
	"ndmesh/internal/grid"
	"ndmesh/internal/rng"
)

// Generator produces one step's worth of open-loop injections: for every
// node, the arrival process decides how many messages the node offers and
// the pattern picks each message's destination. All randomness flows
// through the single stream handed to New, drawn in node order, so a
// generator is a deterministic function of (shape, pattern, process, rate,
// stream) — the property the saturation sweep's serial/parallel equality
// rests on.
type Generator struct {
	shape *grid.Shape
	pat   Pattern
	proc  Process
	rate  float64
	r     *rng.Source
}

// NewGenerator builds a generator; it resets the process for the shape.
func NewGenerator(shape *grid.Shape, pat Pattern, proc Process, rate float64, r *rng.Source) *Generator {
	g := new(Generator)
	g.Reset(shape, pat, proc, rate, r)
	return g
}

// Reset rewinds g in place into the generator NewGenerator builds from the
// same arguments, so a pooled load cell reuses it.
func (g *Generator) Reset(shape *grid.Shape, pat Pattern, proc Process, rate float64, r *rng.Source) {
	proc.Reset(shape.NumNodes())
	*g = Generator{shape: shape, pat: pat, proc: proc, rate: rate, r: r}
}

// Step implements Injector: it emits this step's injections in node order.
// The emit callback owns admission (inject, drop, count); the generator
// only offers traffic, and — being open-loop — ignores the admission
// verdict: a refusal is a drop, never a retry. A Bernoulli process's node
// trials are drawn in one pass (rng.Source.Failures), stopping at each
// arrival for its destination: the same draws, in the same order, as one
// Arrivals call per node.
//
//meshvet:noalloc TestGeneratorStepAllocFree
func (g *Generator) Step(emit func(src, dst grid.NodeID) bool) {
	n := g.shape.NumNodes()
	if _, ok := g.proc.(*Bernoulli); ok {
		for node := g.r.Failures(g.rate, n); node < n; node += 1 + g.r.Failures(g.rate, n-node-1) {
			src := grid.NodeID(node)
			emit(src, g.pat.Dest(src, g.r))
		}
		return
	}
	for node := 0; node < n; node++ {
		k := g.proc.Arrivals(node, g.rate, g.r)
		for j := 0; j < k; j++ {
			src := grid.NodeID(node)
			dst := g.pat.Dest(src, g.r)
			emit(src, dst)
		}
	}
}
