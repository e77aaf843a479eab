package main

import (
	"math"
	"sort"
	"time"
)

//meshvet:wallclock the benchmark's epoch; host time is what it measures, no simulated result reads it
var processStart = time.Now()

// now is the benchmark's one wall-clock read: monotonic host time since the
// process started. Every span, rep wall and latency in this package is a
// difference of two now() values.
func now() time.Duration {
	//meshvet:wallclock measuring host time is the benchmark's purpose; the programs under test never see the value
	return time.Since(processStart)
}

// clockCost estimates what one now() call costs, so spans around
// sub-microsecond calls (engine.Inject) can discount their own reads.
func clockCost() time.Duration {
	const n = 4096
	t0 := now()
	for i := 0; i < n; i++ {
		now()
	}
	return (now() - t0) / (n + 1)
}

// sorted returns an ascending copy of vs.
func sorted(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// quantile is the linearly interpolated p-quantile (0 <= p <= 1) of an
// ascending sample; NaN when the sample is empty.
func quantile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

// summary is a sample reduced to what every timing is reported as: the
// median, its quartiles and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize reduces vs; quartiles follow Python's
// statistics.quantiles(vs, n=4) (the exclusive method), so a spread
// computed from them matches the one the benchmark contract's driver takes.
func summarize(vs []float64) summary {
	asc := sorted(vs)
	n := len(asc)
	s := summary{N: n, Median: quantile(asc, 0.5)}
	if n < 2 {
		s.Q1, s.Q3 = s.Median, s.Median
		return s
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	s.Q1, s.Q3 = cut(1), cut(3)
	return s
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// seconds, millis and micros convert durations to reporting units.
func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// durations converts a duration sample with conv.
func durations(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}
