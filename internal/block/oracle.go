package block

// This file holds the paper's definitions and theorems that tests check
// the protocol against: Algorithm 1's labeling run to quiescence in one
// call. Production runs the same rules one round at a time through the
// Stepper the core model owns.

import (
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
)

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
