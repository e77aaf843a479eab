package fault

// NumFaults returns the number of Fail events (the F of Table 1).
func (s *Schedule) NumFaults() int {
	n := 0
	for _, e := range s.Events {
		if e.Kind == Fail {
			n++
		}
	}
	return n
}
