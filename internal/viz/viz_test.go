package viz

import (
	"strings"
	"testing"

	"ndmesh/internal/block"
	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
)

func TestRenderStatuses(t *testing.T) {
	m, _ := meshtest.NewUniform(2, 5)
	m.Fail(m.Shape().Index(grid.Coord{2, 2}))
	m.SetStatus(m.Shape().Index(grid.Coord{1, 2}), mesh.Disabled)
	m.SetStatus(m.Shape().Index(grid.Coord{3, 2}), mesh.Clean)
	out := Render(m, Options{Source: grid.InvalidNode, Dest: grid.InvalidNode})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("line count = %d", len(lines))
	}
	// +Y up: row y=2 is the middle line (index 2).
	mid := strings.Fields(lines[2])
	if mid[2] != "X" || mid[1] != "#" || mid[3] != "c" || mid[0] != "." {
		t.Fatalf("middle row = %v", mid)
	}
}

func TestRenderInfoGlyph(t *testing.T) {
	m, _ := meshtest.NewUniform(2, 5)
	store := info.NewStore(m.Shape())
	store.Add(m.Shape().Index(grid.Coord{1, 1}), info.Record{Block: store.Intern(grid.BoxAt(grid.Coord{3, 3}))})
	out := Render(m, Options{Store: store, Source: grid.InvalidNode, Dest: grid.InvalidNode})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	row := strings.Fields(lines[3]) // y=1
	if row[1] != "o" {
		t.Fatalf("info node glyph = %q", row[1])
	}
}

func TestRenderPathAndEndpoints(t *testing.T) {
	m, _ := meshtest.NewUniform(2, 5)
	shape := m.Shape()
	src := shape.Index(grid.Coord{0, 0})
	dst := shape.Index(grid.Coord{2, 0})
	mid := shape.Index(grid.Coord{1, 0})
	out := Render(m, Options{Source: src, Dest: dst, Path: []grid.NodeID{mid}})
	bottom := strings.Fields(strings.Split(strings.TrimSpace(out), "\n")[4])
	if bottom[0] != "S" || bottom[1] != "*" || bottom[2] != "D" {
		t.Fatalf("bottom row = %v", bottom)
	}
}

func TestRender3DSlice(t *testing.T) {
	m, _ := meshtest.NewUniform(3, 6)
	for _, c := range []grid.Coord{{2, 2, 3}, {3, 3, 3}} {
		m.Fail(m.Shape().Index(c))
	}
	block.StabilizeFull(m)
	// Slice z=3 shows the faults; slice z=0 does not.
	at3 := Render(m, Options{Fixed: grid.Coord{0, 0, 3}, Source: grid.InvalidNode, Dest: grid.InvalidNode})
	at0 := Render(m, Options{Fixed: grid.Coord{0, 0, 0}, Source: grid.InvalidNode, Dest: grid.InvalidNode})
	if !strings.Contains(at3, "X") {
		t.Fatalf("slice z=3 missing faults:\n%s", at3)
	}
	if strings.Contains(at0, "X") {
		t.Fatalf("slice z=0 shows faults:\n%s", at0)
	}
}

func TestRenderAxisSelection(t *testing.T) {
	m, _ := meshtest.NewUniform(3, 4)
	m.Fail(m.Shape().Index(grid.Coord{1, 0, 2}))
	// Render the X-Z plane at y=0: the fault appears at (x=1, z=2).
	out := Render(m, Options{AxisX: 0, AxisY: 2, Fixed: grid.Coord{0, 0, 0},
		Source: grid.InvalidNode, Dest: grid.InvalidNode})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// z=2 is line index 1 (z=3 first).
	row := strings.Fields(lines[1])
	if row[1] != "X" {
		t.Fatalf("fault not in X-Z slice:\n%s", out)
	}
}

// TestRenderHeat pins the intensity map: zero renders as space, any
// nonzero value gets a visible glyph, the maximum gets the ramp's last
// glyph, and rows print highest Y first.
func TestRenderHeat(t *testing.T) {
	shape, err := grid.NewShape(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	field := make([]float64, shape.NumNodes())
	field[shape.Index(grid.Coord{1, 1})] = 10 // center: maximum
	field[shape.Index(grid.Coord{0, 0})] = 0.01
	out := RenderHeat(shape, field, Options{})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("line count = %d, want 3", len(lines))
	}
	// +Y up: y=0 is the last line, y=1 the middle.
	if got := lines[1][2]; got != HeatRamp[len(HeatRamp)-1] {
		t.Fatalf("max glyph = %q, want %q", got, HeatRamp[len(HeatRamp)-1])
	}
	if got := lines[2][0]; got == ' ' {
		t.Fatal("tiny nonzero value rendered as zero")
	}
	if got := lines[0][0]; got != ' ' {
		t.Fatalf("zero value glyph = %q, want space", got)
	}
}

// TestRenderHeatAllZero pins the degenerate normalization: an all-zero
// field must not divide by zero and renders all spaces.
func TestRenderHeatAllZero(t *testing.T) {
	shape, err := grid.NewShape(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderHeat(shape, make([]float64, shape.NumNodes()), Options{})
	if strings.TrimRight(strings.ReplaceAll(out, "\n", ""), " ") != "" {
		t.Fatalf("all-zero field rendered %q, want spaces", out)
	}
}
