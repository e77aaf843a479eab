package probe

import (
	"fmt"
	"io"

	"ndmesh/internal/engine"
)

// HeatmapSchema lists the CSV columns Heatmap.WriteCSV emits. Node
// residency rows carry dir=-1; link stall rows carry the direction index
// (see grid.Dir) and are emitted only where nonzero.
var HeatmapSchema = []string{"kind", "node", "dir", "peak", "total", "mean"}

// Heatmap folds the census's per-node residency and per-directed-link
// stall views into peak and time-integrated fields. All arrays are
// pre-sized at construction, so observation is allocation-free; the
// census views are summed in place and never retained.
type Heatmap struct {
	numNodes, numDirs int

	residentSum  []int64 // per node, integrated over sampled steps
	residentPeak []int32 // per node
	stallSum     []int64 // per directed link (node*numDirs + dir)
	stallPeak    []int32

	samples int // flushes folded in (denominator for means)
}

// NewHeatmap builds accumulators for a mesh of numNodes nodes with
// numDirs directed links per node.
func NewHeatmap(numNodes, numDirs int) *Heatmap {
	return &Heatmap{
		numNodes:     numNodes,
		numDirs:      numDirs,
		residentSum:  make([]int64, numNodes),
		residentPeak: make([]int32, numNodes),
		stallSum:     make([]int64, numNodes*numDirs),
		stallPeak:    make([]int32, numNodes*numDirs),
	}
}

// ObserveStep implements engine.Probe. Under decimation the views sample
// the last covered step, so the integrated fields are decimated sums —
// means stay comparable because samples counts flushes, not steps.
//
//meshvet:noalloc TestProbedStepAllocFree
func (h *Heatmap) ObserveStep(c engine.StepCensus) {
	for n, r := range c.Resident {
		if r == 0 {
			continue
		}
		h.residentSum[n] += int64(r)
		if r > h.residentPeak[n] {
			h.residentPeak[n] = r
		}
	}
	for _, li := range c.LinkStallsDirty {
		s := c.LinkStalls[li]
		if s == 0 {
			continue
		}
		h.stallSum[li] += int64(s)
		if s > h.stallPeak[li] {
			h.stallPeak[li] = s
		}
	}
	h.samples++
}

// Resident returns (peak, total) residency for node n.
func (h *Heatmap) Resident(n int) (peak int32, total int64) {
	return h.residentPeak[n], h.residentSum[n]
}

// WriteCSV emits one "node" row per node (dir=-1) and one "link" row per
// directed link that ever stalled, with per-sample means.
func (h *Heatmap) WriteCSV(w io.Writer) error {
	if err := writeHeader(w, HeatmapSchema); err != nil {
		return err
	}
	div := float64(h.samples)
	if div == 0 {
		div = 1
	}
	for n := 0; n < h.numNodes; n++ {
		if _, err := fmt.Fprintf(w, "node,%d,-1,%d,%d,%.6g\n",
			n, h.residentPeak[n], h.residentSum[n],
			float64(h.residentSum[n])/div); err != nil {
			return err
		}
	}
	for li := 0; li < len(h.stallSum); li++ {
		if h.stallSum[li] == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "link,%d,%d,%d,%d,%.6g\n",
			li/h.numDirs, li%h.numDirs, h.stallPeak[li], h.stallSum[li],
			float64(h.stallSum[li])/div); err != nil {
			return err
		}
	}
	return nil
}
