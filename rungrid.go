package ndmesh

// This file is the one fan-out every sweep (the protocol studies E11-E18,
// the load studies E19-E23, replay-compare) and LoadRun goes through, and
// the module's one worker loop (TestOneFanOut). runGrid owns what the
// determinism contract needs done in one order — per-job rng streams split
// serially before the fan-out, each job writing only its own result slot,
// and every read of the slots (the done hook: a sweep's Emit, a per-cell
// fold) handed out in index order, one call at a time — and hands every
// job the pool (pool.go) its simulations come from: the caller's, or a
// private one for the run.

import (
	"runtime"
	"sync"

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
// returns the results in job order. Workers claim jobs in index order;
// workers < 1 means GOMAXPROCS, and at one worker the jobs run on the
// caller's goroutine. cancel is polled before each job (ErrCanceled).
//
// done, when non-nil, is the sweeps' Emit seam: it is called with
// j = 0, 1, 2, … strictly in index order, one call at a time, by whichever
// worker completes the prefix through j, so it may read any slot up to
// out[j]. Calls stop at the lowest failing job; that job's error is the
// one returned, and no worker claims a job past it. progress counts
// completed jobs, one call at a time.
func runGrid[R any](f fanOut, seed uint64, jobs int,
	job func(p *EnginePool, j int, r *rng.Source) (R, error), done func(out []R, j int)) ([]R, error) {
	if f.pool == nil {
		f.pool = NewEnginePool(0)
	}
	g := &gridRun[R]{fanOut: f, job: job, done: done, rngs: splitN(seed, jobs),
		out: make([]R, jobs), landed: make([]bool, jobs), stop: jobs}
	workers := f.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, jobs); workers <= 1 {
		g.work()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				g.work()
			}()
		}
		wg.Wait()
	}
	if g.err != nil {
		return nil, g.err
	}
	return g.out, nil
}

// gridRun is one runGrid run: what its workers are handed and, under mu,
// what they share.
type gridRun[R any] struct {
	fanOut
	job    func(p *EnginePool, j int, r *rng.Source) (R, error)
	done   func(out []R, j int)
	rngs   []rng.Source
	out    []R
	landed []bool

	mu       sync.Mutex
	next     int   // the next job to claim
	stop     int   // the lowest failing job, or len(out)
	err      error // stop's error
	finished int   // landed jobs
	cursor   int   // the next job done is called for
	emitting bool  // a worker is walking the cursor
}

// work is one worker: it claims jobs until none is left below stop.
func (g *gridRun[R]) work() {
	g.mu.Lock()
	for g.next < g.stop {
		j := g.next
		g.next++
		g.mu.Unlock()
		var v R
		err := ErrCanceled
		if g.cancel == nil || !g.cancel() {
			v, err = g.job(g.pool, j, &g.rngs[j])
		}
		g.mu.Lock()
		if err != nil {
			if j < g.stop {
				g.stop, g.err = j, err
			}
			continue
		}
		g.out[j], g.landed[j] = v, true
		g.finished++
		if g.progress != nil {
			g.progress(g.finished, len(g.out))
		}
		if g.emitting {
			continue // the walk in progress will reach j
		}
		// Walk the cursor over the landed prefix, calling done with the
		// lock released; only the walker touches cursor.
		g.emitting = true
		for ; g.cursor < g.stop && g.landed[g.cursor]; g.cursor++ {
			if g.done != nil {
				g.mu.Unlock()
				g.done(g.out, g.cursor)
				g.mu.Lock()
			}
		}
		g.emitting = false
	}
	g.mu.Unlock()
}
