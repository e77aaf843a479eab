package probe

import (
	"fmt"
	"io"

	"ndmesh/internal/stats"
)

// HistSchema lists the CSV columns LatencyHist.WriteCSV emits: the
// closed bucket range [lo, hi], its count, and the cumulative count up
// to and including it.
var HistSchema = []string{"lo", "hi", "count", "cum"}

// LatencyHist records delivered-flight latencies into a log-bucketed
// histogram (stats.LogHistogram): exact below 128 steps, ~1.6% relative
// error above, fixed memory, allocation-free observation. It is the
// full-distribution complement to the exact-sample LatencySummary a
// LoadPoint carries — the summary's numbers stay golden-pinned; this
// adds the whole curve.
type LatencyHist struct {
	h *stats.LogHistogram
}

// NewLatencyHist builds an empty histogram.
func NewLatencyHist() *LatencyHist {
	return &LatencyHist{h: stats.NewLogHistogram()}
}

// ObserveLatency implements LatencyObserver.
//
//meshvet:noalloc TestProbedStepAllocFree
func (l *LatencyHist) ObserveLatency(steps int) { l.h.Add(steps) }

// WriteCSV emits one row per non-empty bucket in increasing value order.
func (l *LatencyHist) WriteCSV(w io.Writer) error {
	if err := writeHeader(w, HistSchema); err != nil {
		return err
	}
	var cum int64
	var werr error
	l.h.Buckets(func(lo, hi int, count int64) {
		if werr != nil {
			return
		}
		cum += count
		_, werr = fmt.Fprintf(w, "%d,%d,%d,%d\n", lo, hi, count, cum)
	})
	return werr
}
