package core

import (
	"testing"

	"ndmesh/internal/block"
	"ndmesh/internal/boundary"
	"ndmesh/internal/frame"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
)

// TestSmokeFigure1Pipeline drives the full information-construction pipeline
// on the paper's Figure 1 scenario: faults (3,5,4), (4,5,4), (5,5,3),
// (3,6,3) in a 3-D mesh must yield the faulty block [3:5, 5:6, 3:4], which
// must then be identified distributively and deposited over its frame and
// boundary walls.
func TestSmokeFigure1Pipeline(t *testing.T) {
	m, err := meshtest.NewUniform(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	md := New(m)
	for _, c := range []grid.Coord{{3, 5, 4}, {4, 5, 4}, {5, 5, 3}, {3, 6, 3}} {
		md.ApplyFault(m.Shape().Index(c))
	}
	rounds := md.Stabilize()
	t.Logf("stabilized in %d rounds (label=%d frame=%d ident=%d boundary=%d)",
		rounds, md.LastLabelRound, md.LastFrameRound, md.LastIdentRound, md.LastBoundaryRound)
	if !md.Quiescent() {
		t.Fatalf("model did not quiesce in %d rounds", rounds)
	}

	blocks := block.Extract(m)
	if len(blocks) != 1 {
		t.Fatalf("want 1 block, got %d: %v", len(blocks), blocks)
	}
	want := meshtest.NewBox(grid.Coord{3, 5, 3}, grid.Coord{5, 6, 4})
	if !blocks[0].Box.Equal(want) {
		t.Fatalf("block = %v, want %v", blocks[0].Box, want)
	}
	if !blocks[0].Solid {
		t.Fatalf("block %v is not solid (%d nodes)", blocks[0].Box, blocks[0].Nodes)
	}

	// The identification must have succeeded and deposited records over the
	// whole placement (frame shell + boundary walls).
	if md.Ident.Completed == 0 {
		t.Fatalf("no identification completed (started=%d failed=%d)", md.Ident.Started, md.Ident.Failed)
	}
	placement := boundary.Placement(m.Shape(), want)
	missing := 0
	for _, id := range placement {
		if m.Status(id) != mesh.Enabled {
			continue
		}
		if !hasBox(md.Store, id, want) {
			missing++
			if missing <= 5 {
				t.Errorf("placement node %v lacks the block record", m.Shape().CoordOf(id))
			}
		}
	}
	if missing > 0 {
		t.Fatalf("%d placement nodes lack the record (placement size %d)", missing, len(placement))
	}

	// Figure 2's example frame classification: (6,4,5) is a 3-level corner
	// with edge neighbors (5,4,5), (6,5,5), (6,4,4).
	corner := grid.Coord{6, 4, 5}
	if l, ok := frame.Level(want, corner); !ok || l != 3 {
		t.Fatalf("Level(%v) = %d,%v, want 3-level corner", corner, l, ok)
	}
	ann := md.Detector.Announcement(m.Shape().Index(corner))
	if int(ann.Level) != 3 {
		t.Fatalf("detector announcement at %v = level %d, want 3", corner, ann.Level)
	}
	for _, edge := range []grid.Coord{{5, 4, 5}, {6, 5, 5}, {6, 4, 4}} {
		if l, ok := frame.Level(want, edge); !ok || l != 2 {
			t.Fatalf("Level(%v) = %d,%v, want 2 (3-level edge node)", edge, l, ok)
		}
	}
}
