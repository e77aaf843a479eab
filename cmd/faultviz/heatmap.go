package main

// The -heatmap mode: render a loadgen heatmap CSV (internal/probe's
// Heatmap output) as an ASCII intensity map, so a stall-field or
// residency snapshot of a gridlocking run is one command away:
//
//	loadgen -dims 8x8 -windows 4 -capacity 2 -gridlock-window 8 -heatmap hm.csv
//	faultviz -heatmap hm.csv -metric resident
//	faultviz -heatmap hm.csv -metric stalls -value peak
//
// The mesh shape comes from the CSV's .manifest.json sidecar, so the
// command needs no -dims.

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"ndmesh/internal/cliutil"
	"ndmesh/internal/grid"
	"ndmesh/internal/probe"
	"ndmesh/internal/viz"
)

// renderHeatmap loads path (+ manifest) and prints the selected field to w.
// metric is "resident" or "stalls" (per-node stall totals sum the node's
// directed links); value is "total" or "peak"; sliceStr pins the
// non-rendered axes of an n-D mesh.
func renderHeatmap(w io.Writer, path, metric, value, sliceStr string) error {
	var m probe.Manifest
	mb, err := os.ReadFile(path + ".manifest.json")
	if err != nil {
		return fmt.Errorf("heatmap manifest (needed for the mesh shape): %w", err)
	}
	if err := json.Unmarshal(mb, &m); err != nil {
		return fmt.Errorf("heatmap manifest: %w", err)
	}
	if m.Kind != "heatmap" {
		return fmt.Errorf("%s is a %q telemetry file, want a heatmap", path, m.Kind)
	}
	if m.FormatVersion > probe.FormatVersion {
		return fmt.Errorf("heatmap format version %d is newer than this build understands (%d)", m.FormatVersion, probe.FormatVersion)
	}
	shape, err := grid.NewShape(m.Dims...)
	if err != nil {
		return err
	}

	peakCol := value == "peak"
	if value != "peak" && value != "total" {
		return fmt.Errorf("unknown -value %q (want total | peak)", value)
	}
	field := make([]float64, shape.NumNodes())
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd := csv.NewReader(f)
	rd.FieldsPerRecord = len(probe.HeatmapSchema)
	header := true
	for {
		rec, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if header {
			header = false
			continue
		}
		node, err := strconv.Atoi(rec[1])
		if err != nil || node < 0 || node >= shape.NumNodes() {
			return fmt.Errorf("heatmap row has bad node %q", rec[1])
		}
		col := 4 // total
		if peakCol {
			col = 3
		}
		v, err := strconv.ParseFloat(rec[col], 64)
		if err != nil {
			return fmt.Errorf("heatmap row has bad %s %q", value, rec[col])
		}
		switch {
		case metric == "resident" && rec[0] == "node":
			field[node] = v
		case metric == "stalls" && rec[0] == "link":
			if peakCol {
				// Peaks on different links are not concurrent; keep the
				// hottest link per node rather than summing them.
				if v > field[node] {
					field[node] = v
				}
			} else {
				field[node] += v
			}
		}
	}

	var fixed grid.Coord
	if sliceStr != "" {
		if fixed, err = cliutil.ParseCoord(sliceStr, shape.Dims()); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "heatmap %s: %v %s (%s), ramp %q dim->hot\n", path, m.Dims, metric, value, viz.HeatRamp)
	fmt.Fprint(w, viz.RenderHeat(shape, field, viz.Options{Fixed: fixed}))
	return nil
}

func validHeatmapMetric(metric string) bool {
	return metric == "resident" || metric == "stalls"
}
