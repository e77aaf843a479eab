package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndmesh/internal/engine"
	"ndmesh/internal/grid"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/probe"
	"ndmesh/internal/viz"
)

// TestRenderHeatmapFile renders a probe.Heatmap's CSV + manifest back
// through the CLI, as loadgen's -heatmap output is meant to be read:
// -metric stalls -value peak shows each node's hottest link, not the sum.
func TestRenderHeatmapFile(t *testing.T) {
	shape := meshtest.MustShape(4, 3)
	hm := probe.NewHeatmap(shape.NumNodes(), shape.NumDirs())
	hot, warm := shape.Index(grid.Coord{2, 1}), shape.Index(grid.Coord{0, 0})
	stalls := make([]int32, shape.NumNodes()*shape.NumDirs())
	links := []int32{int32(hot)*4 + 1, int32(warm)*4 + 0, int32(warm)*4 + 2}
	stalls[links[0]], stalls[links[1]], stalls[links[2]] = 8, 3, 3 // warm sums to 6, peaks at 3
	hm.ObserveStep(engine.StepCensus{
		Step: 1, Steps: 1, Resident: make([]int32, shape.NumNodes()),
		LinkStalls: stalls, LinkStallsDirty: links, NumDirs: shape.NumDirs(),
	})

	path := filepath.Join(t.TempDir(), "hm.csv")
	var csv bytes.Buffer
	if err := hm.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := probe.Manifest{FormatVersion: probe.FormatVersion, Kind: "heatmap", Schema: probe.HeatmapSchema, Dims: []int{4, 3}}
	if err := manifest.Write(path); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-heatmap", path, "-metric", "stalls", "-value", "peak"}, &stdout, &stderr); err != nil {
		t.Fatalf("faultviz: %v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "heatmap "+path+": [4 3] stalls (peak)") {
		t.Fatalf("output is not a title and three mesh rows:\n%s", stdout.String())
	}
	field := make([]float64, shape.NumNodes())
	field[hot], field[warm] = 8, 3
	if want := viz.RenderHeat(shape, field, viz.Options{}); strings.Join(lines[1:], "\n")+"\n" != want {
		t.Errorf("rendered\n%s\nwant the per-node peak field\n%s", strings.Join(lines[1:], "\n"), want)
	}
	// Rows print highest Y first, two columns per node.
	if got := lines[2][4]; got != viz.HeatRamp[len(viz.HeatRamp)-1] {
		t.Errorf("hottest node (2,1) renders %q, want the ramp maximum", got)
	}

	if err := run([]string{"-heatmap", path, "-metric", "bogus"}, &stdout, &stderr); err == nil {
		t.Error("unknown -metric accepted")
	}
}
