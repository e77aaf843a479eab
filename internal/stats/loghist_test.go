package stats

import (
	"testing"
)

// TestLogHistExactRange pins that values below 128 land in unit buckets:
// every quantile of a sub-128 population is exact.
func TestLogHistExactRange(t *testing.T) {
	h := NewLogHistogram()
	for v := 0; v < 128; v++ {
		h.Add(v)
	}
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("q0 = %d, want 0", got)
	}
	if got := h.Quantile(0.5); got != 64 {
		t.Fatalf("q50 = %d, want 64", got)
	}
	if got := h.Quantile(1); got != 127 {
		t.Fatalf("q100 = %d, want 127", got)
	}
}

// TestLogHistBucketBounds pins the bucket geometry: logHistIndex and
// BucketBounds are inverses — every value falls inside its own bucket's
// closed range, buckets tile the axis without gaps, and bucket width
// bounds the relative error by 1/64.
func TestLogHistBucketBounds(t *testing.T) {
	probes := []int{0, 1, 127, 128, 129, 191, 192, 255, 256, 1000, 1 << 20, 1<<62 + 12345}
	for _, v := range probes {
		i := logHistIndex(v)
		h := &LogHistogram{}
		lo, hi := h.BucketBounds(i)
		if v < lo || v > hi {
			t.Fatalf("value %d outside its bucket %d: [%d, %d]", v, i, lo, hi)
		}
		if width := hi - lo; v >= 128 && float64(width) > float64(v)/64+1 {
			t.Fatalf("bucket %d width %d too wide for value %d (rel err > 1/64)", i, width, v)
		}
	}
	// Adjacent buckets tile: hi(i)+1 == lo(i+1) across the exact/log seam
	// and an octave boundary.
	h := &LogHistogram{}
	for i := 0; i < 300; i++ {
		_, hi := h.BucketBounds(i)
		lo, _ := h.BucketBounds(i + 1)
		if hi+1 != lo {
			t.Fatalf("gap between buckets %d and %d: hi=%d, next lo=%d", i, i+1, hi, lo)
		}
	}
}

// TestLogHistQuantileError pins the advertised accuracy: for a large
// spread population, every reported quantile is within 1/64 (~1.6%) of
// the exact order statistic.
func TestLogHistQuantileError(t *testing.T) {
	h := NewLogHistogram()
	n := 100000
	for i := 1; i <= n; i++ {
		h.Add(i)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		exact := int(q * float64(n))
		got := h.Quantile(q)
		relErr := float64(got-exact) / float64(exact)
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > 1.0/64+1e-9 {
			t.Fatalf("q%.3f = %d, exact %d: rel err %.4f > 1/64", q, got, exact, relErr)
		}
	}
}

// TestLogHistNegativeClamp pins that negative observations clamp to 0
// instead of panicking or corrupting the index math.
func TestLogHistNegativeClamp(t *testing.T) {
	h := NewLogHistogram()
	h.Add(-5)
	var buckets []int64
	h.Buckets(func(lo, hi int, count int64) { buckets = append(buckets, int64(lo), int64(hi), count) })
	if len(buckets) != 3 || buckets[0] != 0 || buckets[1] != 0 || buckets[2] != 1 || h.Quantile(0.5) != 0 {
		t.Fatalf("negative add mishandled: buckets (lo, hi, count) %v, q50=%d", buckets, h.Quantile(0.5))
	}
}

// TestLogHistBucketsAndReset pins the non-empty-bucket iterator order and
// that Reset empties without reallocating.
func TestLogHistBucketsAndReset(t *testing.T) {
	h := NewLogHistogram()
	for _, v := range []int{3, 3, 200, 5000} {
		h.Add(v)
	}
	var lastHi = -1
	var total int64
	h.Buckets(func(lo, hi int, count int64) {
		if lo <= lastHi {
			t.Fatalf("buckets out of order: lo %d after hi %d", lo, lastHi)
		}
		lastHi = hi
		total += count
	})
	if total != 4 {
		t.Fatalf("bucket counts sum to %d, want 4", total)
	}
	h.Reset()
	count := 0
	h.Buckets(func(int, int, int64) { count++ })
	if count != 0 {
		t.Fatalf("%d non-empty buckets after reset", count)
	}
}

// TestLogHistAddAllocFree pins the telemetry contract: recording an
// observation allocates nothing.
func TestLogHistAddAllocFree(t *testing.T) {
	h := NewLogHistogram()
	v := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Add(v)
		v = (v + 977) % (1 << 20)
	}); allocs != 0 {
		t.Fatalf("Add allocates %v/op, want 0", allocs)
	}
}
