package ndmesh

// This file is the one fan-out every sweep (the protocol studies E11-E18,
// the load studies E19-E23, replay-compare) and LoadRun goes through.
// runGrid owns what the determinism contract needs done in one order —
// per-job rng streams split serially before the fan-out, each job writing
// only its own result slot, any fold over the slots left to a serial pass
// over them (after the run, or per cell once its last slot is written) —
// and hands every job the pool (pool.go) its simulations come from: the
// caller's, or a private one for the run. Its par.For call is the module's
// one fan-out (TestOneFanOut).

import (
	"sync/atomic"

	"ndmesh/internal/par"
	"ndmesh/internal/rng"
)

// fanOut is the run control a sweep's options hand to runGrid; the zero
// value is a GOMAXPROCS-wide run on a private pool with no cancellation and
// no progress reporting.
type fanOut struct {
	workers  int
	pool     *EnginePool
	cancel   func() bool
	progress func(done, total int)
}

// splitN pre-draws n child rng streams from the sweep seed, in job-index
// order — the serial prelude that makes the parallel fan-out deterministic.
// The streams live in one slice, one allocation for the whole sweep.
func splitN(seed uint64, n int) []rng.Source {
	var r rng.Source
	r.Reseed(seed)
	out := make([]rng.Source, n)
	for i := range out {
		r.SplitInto(&out[i])
	}
	return out
}

// runGrid runs job(p, j, r) for every j in [0, jobs) on the j-th stream
// split off seed, with p the caller's pool or else a private one, and
// returns the results in job order. cancel is polled before each job
// (ErrCanceled); of several failing jobs the lowest index's error is
// returned. done, when non-nil, is the sweeps' Emit seam: the worker that
// completed job j calls it after writing out[j] and before the progress
// tick, and it may read out[j] and any slot whose completion it has itself
// ordered (reliability's per-cell countdown, which folds each cell there).
func runGrid[R any](f fanOut, seed uint64, jobs int,
	job func(p *EnginePool, j int, r *rng.Source) (R, error), done func(out []R, j int)) ([]R, error) {
	rngs := splitN(seed, jobs)
	out := make([]R, jobs)
	pool := f.pool
	if pool == nil {
		pool = NewEnginePool(0)
	}
	var finished atomic.Int64
	err := par.For(f.workers, jobs, func(j int) error {
		if f.cancel != nil && f.cancel() {
			return ErrCanceled
		}
		v, err := job(pool, j, &rngs[j])
		if err != nil {
			return err
		}
		out[j] = v
		if done != nil {
			done(out, j)
		}
		if f.progress != nil {
			f.progress(int(finished.Add(1)), jobs)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
