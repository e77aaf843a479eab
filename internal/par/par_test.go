package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 500
		counts := make([]int32, n)
		err := For(workers, n, func(i int) error {
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
	if err := For(4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		err := For(workers, 100, func(i int) error {
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
		if err := For(workers, n, func(i int) error {
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
