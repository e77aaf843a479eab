// Package par is the parallel experiment engine: a small worker pool that
// fans independent, pre-seeded trials out across GOMAXPROCS workers while
// keeping the results bit-identical to a serial run. Its one caller is the
// root package's runGrid (rungrid.go), which every sweep goes through.
//
// The determinism contract is structural, not accidental:
//
//   - Jobs are identified by their index i in [0, n). Anything random a job
//     needs (its rng.Source, its fault schedule) must be derived BEFORE the
//     fan-out, in index order, exactly as the serial loop would have drawn
//     it. Splitting an rng stream is a handful of integer operations, so the
//     serial prelude costs nothing compared to the trials themselves.
//   - A job writes its result only into its own slot of a caller-owned
//     results slice; workers share no other state.
//   - The caller aggregates the results serially, in index order, after
//     every worker has finished. Summary statistics built by in-order
//     accumulation are therefore byte-identical regardless of the worker
//     count — including floating-point means, whose value depends on
//     addition order.
//
// Under this contract, For(1, ...) and For(runtime.GOMAXPROCS(0), ...)
// produce indistinguishable output, which experiments_parallel_test.go
// asserts for every sweep in the repository.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values < 1 mean "use all
// available parallelism" (GOMAXPROCS).
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For runs job(i) for every i in [0, n) across at most workers goroutines.
//
// Jobs are claimed from an atomic counter, so scheduling order is
// nondeterministic — the caller must follow the package's determinism
// contract (pre-seeded jobs, per-index result slots, in-order aggregation).
//
// If any jobs return errors, For waits for all workers to drain and
// returns the error of the lowest job index, so the reported error does not
// depend on goroutine scheduling. With workers <= 1 the jobs run inline on
// the calling goroutine in index order.
func For(workers, n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next int64 = -1
		// failedAt holds the lowest failed index + 1 (0 = no failure);
		// workers stop claiming past a known failure so error runs terminate
		// promptly, while lower-indexed jobs already in flight finish.
		failedAt int64
		mu       sync.Mutex
		errs     = make(map[int]error)
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if f := atomic.LoadInt64(&failedAt); f > 0 && i >= int(f) {
					return
				}
				if err := job(i); err != nil {
					mu.Lock()
					errs[i] = err
					mu.Unlock()
					for {
						f := atomic.LoadInt64(&failedAt)
						if f > 0 && f <= int64(i)+1 {
							break
						}
						if atomic.CompareAndSwapInt64(&failedAt, f, int64(i)+1) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if len(errs) == 0 {
		return nil
	}
	lowest := -1
	//meshvet:ordered min-key reduction is order-insensitive
	for i := range errs {
		if lowest < 0 || i < lowest {
			lowest = i
		}
	}
	return errs[lowest]
}
