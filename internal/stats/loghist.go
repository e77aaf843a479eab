package stats

import "math/bits"

// LogHistogram is an HDR-style log-bucketed integer histogram: values below
// logHistBase land in exact unit buckets, larger values in log-linear
// buckets — 64 sub-buckets per power of two — whose relative quantization
// error is bounded by 1/64 (~1.6%, under the 2% the telemetry layer
// promises). Unlike the exact-sample path (Percentiles), memory is fixed
// (~3.7k buckets for the full non-negative int64 range) regardless of how
// many observations stream in, and Add is allocation-free, which is what
// lets a probe keep the full latency distribution of an arbitrarily long
// load run at 0 allocs/op steady state.
type LogHistogram struct {
	counts []int64
}

const (
	// logHistBase is the exact range: values in [0, logHistBase) get unit
	// buckets. It is 1<<logHistSubBits.
	logHistBase = 128
	// logHistSubBits fixes 1<<(logHistSubBits-1) = 64 sub-buckets per
	// octave above the exact range: relative error <= 2^-(logHistSubBits-1).
	logHistSubBits = 7
	// logHistBuckets covers every non-negative int64: octaves 7..62 after
	// the 128 exact buckets.
	logHistBuckets = logHistBase + (63-logHistSubBits)*64
)

// NewLogHistogram builds an empty histogram sized for the full non-negative
// int64 range (one ~30 KiB allocation, reused for the histogram's life).
func NewLogHistogram() *LogHistogram {
	return &LogHistogram{counts: make([]int64, logHistBuckets)}
}

// logHistIndex maps a value to its bucket. Negative values clamp to 0.
func logHistIndex(v int) int {
	if v < 0 {
		v = 0
	}
	if v < logHistBase {
		return v
	}
	e := bits.Len64(uint64(v)) - 1 // >= logHistSubBits
	shift := e - (logHistSubBits - 1)
	m := v >> shift // in [64, 128)
	return logHistBase + (e-logHistSubBits)*64 + (m - 64)
}

// BucketBounds returns the closed value range [lo, hi] of bucket i.
func (h *LogHistogram) BucketBounds(i int) (lo, hi int) {
	if i < logHistBase {
		return i, i
	}
	oct, off := (i-logHistBase)/64, (i-logHistBase)%64
	shift := oct + 1 // e = logHistSubBits + oct; shift = e - (logHistSubBits-1)
	lo = (64 + off) << shift
	return lo, lo + (1 << shift) - 1
}

// Add records one observation. Negative values clamp to 0.
//
//meshvet:noalloc TestLogHistAddAllocFree
func (h *LogHistogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	h.counts[logHistIndex(v)]++
}

// Buckets calls fn for every non-empty bucket in increasing value order.
func (h *LogHistogram) Buckets(fn func(lo, hi int, count int64)) {
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := h.BucketBounds(i)
		fn(lo, hi, c)
	}
}

// Reset empties the histogram, keeping the bucket array.
func (h *LogHistogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
}
