package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// noState is the newState of the tests that exercise only the index fan-out.
func noState() struct{} { return struct{}{} }

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 500
		counts := make([]int32, n)
		err := ForState(workers, n, noState, func(_ struct{}, i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEmpty(t *testing.T) {
	if err := ForState(4, 0, noState, func(struct{}, int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		err := ForState(workers, 100, noState, func(_ struct{}, i int) error {
			if i%30 == 7 { // fails at 7, 37, 67, 97
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 7" {
			t.Fatalf("workers=%d: got %v, want job 7", workers, err)
		}
	}
}

func TestForStateOneStatePerWorker(t *testing.T) {
	var states int32
	const workers, n = 4, 200
	seen := make([]int32, n)
	err := ForState(workers, n, func() *int32 {
		atomic.AddInt32(&states, 1)
		return new(int32)
	}, func(s *int32, i int) error {
		*s++
		atomic.AddInt32(&seen[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&states); got < 1 || got > workers {
		t.Fatalf("created %d states, want 1..%d", got, workers)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("default worker count must be at least 1")
	}
}

func TestForDeterministicResultOrder(t *testing.T) {
	// The contract in action: per-index slots + in-order aggregation give
	// identical floats for any worker count.
	sum := func(workers int) float64 {
		const n = 1000
		res := make([]float64, n)
		if err := ForState(workers, n, noState, func(_ struct{}, i int) error {
			res[i] = 1.0 / float64(i+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, v := range res {
			s += v
		}
		return s
	}
	serial := sum(1)
	for _, w := range []int{2, 5, 16} {
		if got := sum(w); got != serial {
			t.Fatalf("workers=%d: sum %v != serial %v", w, got, serial)
		}
	}
}
