package stats

// Quantile returns the q-quantile (q in [0,1]) as the upper edge of the
// bucket holding that rank: exact below 128, within ~1.6% above.
func (h *LogHistogram) Quantile(q float64) int {
	var total int64
	for _, c := range h.counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := min(int64(q*float64(total)), total-1)
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen > target {
			_, hi := h.BucketBounds(i)
			return hi
		}
	}
	return 0 // unreachable: seen reaches total > target
}
