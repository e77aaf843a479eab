package block

// This file holds the paper's definitions and theorems that tests check
// the protocol against: Algorithm 1's labeling run to quiescence in one
// call. Production runs the same rules one round at a time through the
// Stepper the core model owns.

import (
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
)

// maxRoundsFactor bounds stabilization length as a safety net. The clean
// wave crosses the mesh at one hop per round and every node changes status a
// bounded number of times per wave, so 8*diameter is far beyond any legal
// convergence; exceeding it indicates a protocol bug.
const maxRoundsFactor = 8

// Result summarizes one stabilization run.
type Result struct {
	// Rounds is the number of synchronous rounds until no status change
	// (the a_i of Table 1).
	Rounds int
	// Transitions counts individual status changes applied over all rounds.
	Transitions int
	// Affected counts distinct nodes that changed status at least once;
	// the locality metric of the reactive model.
	Affected int
	// Converged is false only if the safety cap was hit (protocol bug).
	Converged bool
}

// Stabilize runs rounds until quiescence and reports the convergence
// numbers. seeds are the externally-changed nodes of the triggering event.
func Stabilize(m *mesh.Mesh, seeds ...grid.NodeID) Result {
	st := NewStepper(m)
	st.Seed(seeds...)
	return st.Run()
}

// StabilizeFull seeds every node: the labeling of a mesh whose faults were
// all applied before the first round.
func StabilizeFull(m *mesh.Mesh) Result {
	st := NewStepper(m)
	ids := make([]grid.NodeID, m.NumNodes())
	for i := range ids {
		ids[i] = grid.NodeID(i)
	}
	st.Seed(ids...)
	return st.Run()
}

// Run drives the stepper to quiescence.
func (st *Stepper) Run() Result {
	var res Result
	roundCap := maxRoundsFactor * (st.m.Shape().Diameter() + 2)
	for !st.Quiescent() {
		if res.Rounds >= roundCap {
			res.Affected = st.Affected()
			return res // Converged stays false: protocol bug guard.
		}
		res.Transitions += st.Round()
		res.Rounds++
	}
	res.Affected = st.Affected()
	res.Converged = true
	// Quiescence is detected one round after the last change: the final
	// evaluation round that produced no transition is not counted in a_i.
	if res.Rounds > 0 {
		res.Rounds--
	}
	return res
}
