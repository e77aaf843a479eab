package safety

// This file holds the paper's definitions and theorems that tests check
// the protocol against: the exhaustive minimal-path search that Theorem 2's
// safe-source condition (SourceSafe) is held to.

import (
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
)

// MinimalPathExists reports whether a minimal (monotone, Manhattan-length)
// path from s to d exists through enabled nodes only. It is the exhaustive
// ground truth Theorem 2's sufficiency is tested against: BFS restricted to
// the preferred directions.
func MinimalPathExists(m *mesh.Mesh, s, d grid.NodeID) bool {
	if m.Status(s) != mesh.Enabled || m.Status(d) != mesh.Enabled {
		return false
	}
	if s == d {
		return true
	}
	shape := m.Shape()
	visited := map[grid.NodeID]struct{}{s: {}}
	queue := []grid.NodeID{s}
	var dirs []grid.Dir
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		dirs = shape.PreferredDirs(cur, d, dirs[:0])
		for _, dir := range dirs {
			nb := shape.Neighbor(cur, dir)
			if nb == grid.InvalidNode || m.Status(nb) != mesh.Enabled {
				continue
			}
			if nb == d {
				return true
			}
			if _, dup := visited[nb]; dup {
				continue
			}
			visited[nb] = struct{}{}
			queue = append(queue, nb)
		}
	}
	return false
}
