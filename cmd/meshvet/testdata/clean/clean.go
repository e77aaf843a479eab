// Package clean has nothing for meshvet to report.
package clean

// Sum adds the values in order.
func Sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
