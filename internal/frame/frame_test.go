package frame

import (
	"testing"

	"ndmesh/internal/block"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
)

// fig1Box is the paper's block [3:5, 5:6, 3:4].
var fig1Box = meshtest.NewBox(grid.Coord{3, 5, 3}, grid.Coord{5, 6, 4})

func TestLevelClassification(t *testing.T) {
	cases := []struct {
		c     grid.Coord
		level int
		ok    bool
	}{
		{grid.Coord{2, 5, 3}, 1, true},  // adjacent (x at lo-1)
		{grid.Coord{6, 6, 4}, 1, true},  // adjacent (x at hi+1)
		{grid.Coord{5, 4, 5}, 2, true},  // 3-level edge node (paper example)
		{grid.Coord{6, 5, 5}, 2, true},  // 3-level edge node
		{grid.Coord{6, 4, 4}, 2, true},  // 3-level edge node
		{grid.Coord{6, 4, 5}, 3, true},  // 3-level corner (paper example)
		{grid.Coord{2, 4, 2}, 3, true},  // another corner
		{grid.Coord{4, 5, 3}, 0, false}, // inside the block
		{grid.Coord{1, 5, 3}, 0, false}, // two units out
		{grid.Coord{7, 7, 5}, 0, false}, // diagonal far
		{grid.Coord{4, 5}, 0, false},    // wrong dimensionality
	}
	for _, tc := range cases {
		l, ok := Level(fig1Box, tc.c)
		if ok != tc.ok || (ok && l != tc.level) {
			t.Errorf("Level(%v) = %d,%v, want %d,%v", tc.c, l, ok, tc.level, tc.ok)
		}
	}
}

// TestFigure2CornerAndEdges verifies the paper's Figure 2 example: corner
// (6,4,5) has surface directions toward the block and its three edge
// neighbors are (5,4,5), (6,5,5), (6,4,4).
func TestFigure2CornerAndEdges(t *testing.T) {
	corner := grid.Coord{6, 4, 5}
	if !IsCorner(fig1Box, corner) {
		t.Fatal("corner not classified")
	}
	dirs := SurfaceDirs(fig1Box, corner)
	want := grid.DirSet(0).Add(grid.DirMinus(0)).Add(grid.DirPlus(1)).Add(grid.DirMinus(2))
	if dirs != want {
		t.Fatalf("SurfaceDirs(corner) = %b, want -X +Y -Z (%b)", dirs, want)
	}
	// The edge neighbors lie exactly in the surface directions.
	edges := []grid.Coord{{5, 4, 5}, {6, 5, 5}, {6, 4, 4}}
	for _, e := range edges {
		l, ok := Level(fig1Box, e)
		if !ok || l != 2 {
			t.Errorf("edge %v level = %d,%v", e, l, ok)
		}
	}
	// Each 3-level edge node has two neighbors adjacent to the block; e.g.
	// (5,4,5) has (5,5,5) and (5,4,4) per the paper.
	for _, adj := range []grid.Coord{{5, 5, 5}, {5, 4, 4}} {
		if !IsAdjacent(fig1Box, adj) {
			t.Errorf("%v should be adjacent", adj)
		}
	}
	// The edge's surface directions point to those adjacent nodes.
	if d := SurfaceDirs(fig1Box, grid.Coord{5, 4, 5}); d != grid.DirSet(0).Add(grid.DirPlus(1)).Add(grid.DirMinus(2)) {
		t.Errorf("SurfaceDirs((5,4,5)) = %b", d)
	}
}

func TestCornersEnumeration(t *testing.T) {
	cs := Corners(fig1Box)
	if len(cs) != 8 {
		t.Fatalf("3-D block must have 8 corners, got %d", len(cs))
	}
	seen := map[string]bool{}
	for _, c := range cs {
		if l, ok := Level(fig1Box, c); !ok || l != 3 {
			t.Errorf("corner %v misclassified", c)
		}
		seen[c.String()] = true
	}
	for _, want := range []grid.Coord{{2, 4, 2}, {6, 7, 5}, {2, 7, 5}, {6, 4, 2}} {
		if !seen[want.String()] {
			t.Errorf("missing corner %v", want)
		}
	}
}

func TestEachShellNode(t *testing.T) {
	// Shell volume = expanded volume - interior volume.
	exp := fig1Box.Expand(1)
	want := exp.Volume() - fig1Box.Volume()
	count := 0
	levels := map[int]int{}
	EachShellNode(fig1Box, func(c grid.Coord, level int) {
		count++
		levels[level]++
	})
	if count != want {
		t.Fatalf("shell count = %d, want %d", count, want)
	}
	// 3-D shell: 8 corners, edges 12 of varying length, 6 faces.
	if levels[3] != 8 {
		t.Errorf("corner count = %d", levels[3])
	}
	// Edge nodes: 4*(ex+ey+ez) where e* are interior extents.
	wantEdges := 4 * (fig1Box.Extent(0) + fig1Box.Extent(1) + fig1Box.Extent(2))
	if levels[2] != wantEdges {
		t.Errorf("edge node count = %d, want %d", levels[2], wantEdges)
	}
	// Face (adjacent) nodes: 2*(ex*ey + ey*ez + ex*ez).
	ex, ey, ez := fig1Box.Extent(0), fig1Box.Extent(1), fig1Box.Extent(2)
	wantFaces := 2 * (ex*ey + ey*ez + ex*ez)
	if levels[1] != wantFaces {
		t.Errorf("adjacent node count = %d, want %d", levels[1], wantFaces)
	}
}

// TestAdjacentSurfaces checks Definition 3 through the surface directions:
// the adjacent nodes that look onto the block along +Y form the adjacent
// surface y = 4 of Figure 1(b), those along -Y the surface y = 7, and every
// adjacent node looks onto exactly one face.
func TestAdjacentSurfaces(t *testing.T) {
	south := meshtest.NewBox(grid.Coord{3, 4, 3}, grid.Coord{5, 4, 4})
	north := meshtest.NewBox(grid.Coord{3, 7, 3}, grid.Coord{5, 7, 4})
	var nSouth, nNorth int
	EachShellNode(fig1Box, func(c grid.Coord, level int) {
		if level != 1 {
			return
		}
		dirs := SurfaceDirs(fig1Box, c)
		if dirs.Count() != 1 || !IsAdjacent(fig1Box, c) {
			t.Fatalf("adjacent node %v has surface directions %v", c, dirs)
		}
		switch dirs.First() {
		case grid.DirPlus(1):
			nSouth++
			if !inBox(south, c) {
				t.Fatalf("+Y node %v off the surface %v", c, south)
			}
		case grid.DirMinus(1):
			nNorth++
			if !inBox(north, c) {
				t.Fatalf("-Y node %v off the surface %v", c, north)
			}
		}
	})
	if nSouth != south.Volume() || nNorth != north.Volume() {
		t.Fatalf("surfaces hold %d and %d nodes, want %d and %d", nSouth, nNorth, south.Volume(), north.Volume())
	}
}

// TestDetectorMatchesGeometry: after stabilization, the distributed
// announcements must equal the geometric classification for every node of
// the mesh — for the Figure 1 block and for random scattered blocks.
func TestDetectorMatchesGeometry(t *testing.T) {
	m, _ := meshtest.NewUniform(3, 10)
	for _, c := range []grid.Coord{{3, 5, 4}, {4, 5, 4}, {5, 5, 3}, {3, 6, 3}} {
		m.Fail(m.Shape().Index(c))
	}
	block.StabilizeFull(m)
	det := NewDetector(m)
	ids := make([]grid.NodeID, m.NumNodes())
	for i := range ids {
		ids[i] = grid.NodeID(i)
	}
	det.Seed(ids...)
	settle(t, det)
	verifyDetector(t, m, det, fig1Box)
}

func verifyDetector(t *testing.T, m *mesh.Mesh, det *Detector, box grid.Box) {
	t.Helper()
	shape := m.Shape()
	for id := 0; id < m.NumNodes(); id++ {
		c := shape.CoordOf(grid.NodeID(id))
		ann := det.Announcement(grid.NodeID(id))
		wantLevel, onFrame := 0, false
		if m.Status(grid.NodeID(id)) == mesh.Enabled {
			wantLevel, onFrame = Level(box, c)
		}
		if !onFrame {
			if ann.Level != 0 {
				t.Errorf("node %v announces level %d, want none", c, ann.Level)
			}
			continue
		}
		if int(ann.Level) != wantLevel {
			t.Errorf("node %v announces level %d, want %d", c, ann.Level, wantLevel)
			continue
		}
		if want := SurfaceDirs(box, c); ann.Dirs != want {
			t.Errorf("node %v dirs = %b, want %b", c, ann.Dirs, want)
		}
	}
}

// TestDetectorRandom2D: detector equivalence on random well-separated
// 2-D blocks.
func TestDetectorRandom2D(t *testing.T) {
	r := rng.New(33)
	for trial := 0; trial < 30; trial++ {
		m, _ := meshtest.NewUniform(2, 16)
		// Place 2 isolated faults at Chebyshev distance >= 5.
		var coords []grid.Coord
		for len(coords) < 2 {
			c := grid.Coord{2 + r.Intn(12), 2 + r.Intn(12)}
			okc := true
			for _, p := range coords {
				dx, dy := abs(c[0]-p[0]), abs(c[1]-p[1])
				if max(dx, dy) < 5 {
					okc = false
				}
			}
			if okc {
				coords = append(coords, c)
			}
		}
		var seeds []grid.NodeID
		for _, c := range coords {
			id := m.Shape().Index(c)
			m.Fail(id)
			seeds = append(seeds, id)
		}
		block.Stabilize(m, seeds...)
		det := NewDetector(m)
		det.Seed(seeds...)
		settle(t, det)
		for _, c := range coords {
			box := grid.BoxAt(c)
			// Check the 8 ring nodes and 4 corners of each singleton.
			EachShellNode(box, func(sc grid.Coord, level int) {
				if !m.Shape().Contains(sc) {
					return
				}
				ann := det.Announcement(m.Shape().Index(sc))
				if int(ann.Level) != level {
					t.Errorf("trial %d: %v level %d, want %d", trial, sc, ann.Level, level)
				}
			})
		}
	}
}

// TestDetectorReactsToRecovery: announcements must follow the labeling
// after a block dissolves.
func TestDetectorReactsToRecovery(t *testing.T) {
	m, _ := meshtest.NewUniform(2, 10)
	id := m.Shape().Index(grid.Coord{5, 5})
	m.Fail(id)
	st := block.NewStepper(m)
	st.Seed(id)
	st.Run()
	det := NewDetector(m)
	det.Seed(id)
	settle(t, det)
	corner := m.Shape().Index(grid.Coord{4, 4})
	if det.Announcement(corner).Level != 2 {
		t.Fatalf("corner not detected: %+v", det.Announcement(corner))
	}
	// Recover; run labeling + detector rounds interleaved (as core does).
	m.Recover(id)
	st.Seed(id)
	det.Seed(id)
	for i := 0; i < 20; i++ {
		if ch := st.Round(); ch > 0 {
			det.Seed(st.LastChanged()...)
		}
		det.Round()
	}
	if ann := det.Announcement(corner); ann.Level != 0 {
		t.Fatalf("corner announcement survives dissolved block: %+v", ann)
	}
	if ann := det.Announcement(id); ann.Level != 0 {
		t.Fatalf("recovered node announces: %+v", ann)
	}
}

// TestDetectorAdjacentFrames is the regression test for corner detection
// with a second block whose frame touches the first block's frame: the
// corner (4,7,4) of block [5:5, 5:6, 5:6] sees a fourth level-2 neighbor
// (3,7,4) belonging to block [2:2, 7:7, 3:3]'s frame, and must still
// announce level 3 (candidate-set detection, not neighbor counting).
func TestDetectorAdjacentFrames(t *testing.T) {
	m, _ := meshtest.NewUniform(3, 10)
	var seeds []grid.NodeID
	for _, c := range []grid.Coord{{5, 5, 5}, {5, 6, 6}, {2, 7, 3}} {
		id := m.Shape().Index(c)
		m.Fail(id)
		seeds = append(seeds, id)
	}
	block.Stabilize(m, seeds...)
	det := NewDetector(m)
	det.Seed(seeds...)
	settle(t, det)

	boxA := meshtest.NewBox(grid.Coord{5, 5, 5}, grid.Coord{5, 6, 6})
	boxB := grid.BoxAt(grid.Coord{2, 7, 3})
	cornerA := grid.Coord{4, 7, 4}
	cornerB := grid.Coord{3, 6, 4}
	annA := det.Announcement(m.Shape().Index(cornerA))
	if int(annA.Level) != 3 || annA.Dirs != SurfaceDirs(boxA, cornerA) {
		t.Fatalf("corner %v of %v: announcement %+v", cornerA, boxA, annA)
	}
	annB := det.Announcement(m.Shape().Index(cornerB))
	if int(annB.Level) != 3 || annB.Dirs != SurfaceDirs(boxB, cornerB) {
		t.Fatalf("corner %v of %v: announcement %+v", cornerB, boxB, annB)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// settle runs the detector's rounds to quiescence, as the core model does,
// and fails past the round cap the model allows the labeling.
func settle(t *testing.T, d *Detector) {
	t.Helper()
	for rounds := 0; !d.Quiescent(); rounds++ {
		if rounds > 8*(d.m.Shape().Diameter()+2) {
			t.Fatalf("detector not quiescent after %d rounds", rounds)
		}
		d.Round()
	}
}

// inBox reports whether c lies inside b on every axis.
func inBox(b grid.Box, c grid.Coord) bool {
	for i, v := range c {
		if !b.ContainsOn(i, v) {
			return false
		}
	}
	return len(c) == b.Dims()
}

// TestChangedEmptyAfterQuietRound: Changed lists the nodes the last Round
// changed, so a quiet Round after one with changes empties it — whether it
// re-evaluated candidates and found nothing new or had none to evaluate.
func TestChangedEmptyAfterQuietRound(t *testing.T) {
	m, _ := meshtest.NewUniform(2, 10)
	id := m.Shape().Index(grid.Coord{5, 5})
	m.Fail(id)
	det := NewDetector(m)
	det.Seed(id)
	if det.Round() == 0 || len(det.Changed()) == 0 {
		t.Fatal("the first round after a fault changed nothing")
	}
	for rounds := 0; det.Round() > 0; rounds++ {
		if rounds > 20 {
			t.Fatal("the detector did not settle")
		}
	}
	if got := det.Changed(); len(got) != 0 {
		t.Fatalf("after a quiet round Changed lists %v", got)
	}
	det.Seed(id)
	if det.Round() != 0 {
		t.Fatal("re-evaluating settled nodes changed them")
	}
	m.Recover(id)
	det.Seed(id)
	if det.Round() == 0 {
		t.Fatal("the round after a recovery changed nothing")
	}
	det.cand.Clear()
	if det.Round() != 0 || len(det.Changed()) != 0 {
		t.Fatalf("a round with no candidates lists %v", det.Changed())
	}
}
