package ndmesh

// This file is the simulation-reuse lifecycle under every sweep. A worker
// of runGrid (rungrid.go) holds a simPool — one reusable Simulation per
// (mesh shape, λ), confined to that worker — so a trial restart is a Reset
// instead of a construction. Behind the meshd daemon (internal/server) the
// simPools are in turn bound to an EnginePool: a shared, concurrency-safe
// reservoir of warm Simulations that sweep workers draw from instead of
// constructing their own, and return to when the sweep ends. The Reset
// contract (every layer rewinds without reallocating, pinned by
// reset_test.go) is what makes reuse sound: a reused simulation is
// indistinguishable from a fresh one after Reset, so which warm simulation
// a job receives can never reach its results. loadPoint's deferred cleanup
// (flights detached, the free configuration back —
// TestLoadPointLeavesEngineClean) is what makes it safe: simulations come
// back clean on every exit of its Engine.Run (saturation.go), the Cancel
// poll included, which EnginePool.VerifyClean audits.
//
// The EnginePool threads into the sweeps through the Pool field of
// SaturationOptions / ClosedLoopOptions / ReliabilityOptions / LoadOptions:
// runGrid binds each worker's simPool to the shared reservoir (simPool.get
// tries take before constructing and reports a construction through
// noteBuilt) and puts every drawn simulation back once the fan-out has
// drained — success, error or cancellation alike.

import (
	"errors"
	"fmt"
	"sync"

	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
)

// ErrCanceled is returned by the sweeps and LoadRun when the caller's
// Cancel hook reports cancellation mid-run. The aborted run performs the
// same engine cleanup as a completed one, so pooled simulations come back
// clean.
var ErrCanceled = errors.New("ndmesh: run canceled")

// simPool is the per-worker state of a sweep: one reusable Simulation per
// (shape, λ) pair. A pool is confined to a single worker goroutine, so no
// locking is needed; pools never share simulations. When shared is
// non-nil (a load sweep run against an EnginePool), get first tries the
// shared reservoir's warm simulations before constructing, and runGrid
// hands every held simulation back when its fan-out ends.
type simPool struct {
	sims   map[simKey]*Simulation
	shared *EnginePool
}

// simKey names a (shape, λ) pair by value: building and looking one up
// allocates nothing.
type simKey struct {
	dims         [grid.MaxDims]int32
	rank, lambda int
}

// newSimKey keys (dims, λ). Dims no shape can have (more than
// grid.MaxDims of them, or a radix past int32) get a key of rank -1, which
// no simulation is stored under, not the key of a shape they truncate to.
func newSimKey(dims []int, lambda int) simKey {
	key := simKey{rank: len(dims), lambda: lambda}
	for i, k := range dims {
		if i >= grid.MaxDims || k != int(int32(k)) {
			return simKey{rank: -1}
		}
		key.dims[i] = int32(k)
	}
	return key
}

func newSimPool() *simPool { return &simPool{sims: make(map[simKey]*Simulation)} }

// get returns a fault-free simulation of the given shape and λ, resetting
// and reusing a previously built one when possible — the worker's own
// first, then the shared reservoir's, then a fresh construction.
func (p *simPool) get(dims []int, lambda int) (*Simulation, error) {
	key := newSimKey(dims, lambda)
	sim, ok := p.sims[key]
	if !ok && p.shared != nil {
		if sim = p.shared.take(key); sim != nil {
			p.sims[key] = sim
		}
	}
	if sim != nil {
		sim.Reset()
		return sim, nil
	}
	sim, err := NewSimulation(Config{Dims: dims, Lambda: lambda})
	if err != nil {
		return nil, err
	}
	if p.shared != nil {
		p.shared.noteBuilt()
	}
	p.sims[key] = sim
	return sim, nil
}

// setSchedule copies a generated schedule into the simulation. The copy (not
// an alias) keeps the sim's schedule buffer self-owned across resets.
func setSchedule(sim *Simulation, sched *fault.Schedule) {
	sim.sched.Events = append(sim.sched.Events[:0], sched.Events...)
}

// PoolStats counts an EnginePool's checkout traffic. The daemon's result
// cache is validated against it: a cache-hit submission must leave
// Acquired and Built unchanged (no engine was touched).
type PoolStats struct {
	// Acquired counts checkouts served by resetting a warm idle
	// simulation; Built counts checkouts that had to construct one.
	Acquired uint64 `json:"acquired"`
	Built    uint64 `json:"built"`
	// Released counts simulations returned to the idle reservoir;
	// Dropped the returns discarded because the per-shape idle cap was
	// already full (the simulation is left to the garbage collector).
	Released uint64 `json:"released"`
	Dropped  uint64 `json:"dropped"`
	// Idle is the current idle-simulation count across all shapes.
	Idle int `json:"idle"`
}

// EnginePool is a shared reservoir of warm, Reset-recycled Simulations
// keyed by (mesh shape, λ). It is safe for concurrent use: many sweeps
// (the daemon's concurrent jobs) may check simulations out and return
// them at once. A nil *EnginePool is valid everywhere one is accepted and
// means "no sharing" — each sweep builds worker-local simulations exactly
// as before.
type EnginePool struct {
	mu      sync.Mutex
	idle    map[simKey][]*Simulation
	maxIdle int
	stats   PoolStats
}

// NewEnginePool builds an empty reservoir retaining at most maxIdle idle
// simulations per (shape, λ) key; maxIdle <= 0 retains without bound.
func NewEnginePool(maxIdle int) *EnginePool {
	return &EnginePool{idle: make(map[simKey][]*Simulation), maxIdle: maxIdle}
}

// Stats returns a snapshot of the pool's checkout counters.
func (p *EnginePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	n := 0
	//meshvet:ordered summing idle counts is order-insensitive
	for _, sims := range p.idle {
		n += len(sims)
	}
	s.Idle = n
	return s
}

// take pops an idle simulation for the key, or returns nil when none is
// warm (the caller constructs one and reports it via noteBuilt).
func (p *EnginePool) take(key simKey) *Simulation {
	p.mu.Lock()
	defer p.mu.Unlock()
	sims := p.idle[key]
	if len(sims) == 0 {
		return nil
	}
	sim := sims[len(sims)-1]
	p.idle[key] = sims[:len(sims)-1]
	p.stats.Acquired++
	return sim
}

// noteBuilt records a checkout that constructed a fresh simulation.
func (p *EnginePool) noteBuilt() {
	p.mu.Lock()
	p.stats.Built++
	p.mu.Unlock()
}

// put returns a simulation to the idle reservoir, dropping it when the
// per-key cap is full.
func (p *EnginePool) put(key simKey, sim *Simulation) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.maxIdle > 0 && len(p.idle[key]) >= p.maxIdle {
		p.stats.Dropped++
		return
	}
	p.idle[key] = append(p.idle[key], sim)
	p.stats.Released++
}

// VerifyClean audits every idle simulation against the clean-engine
// contract the sweeps' deferred cleanup guarantees (the residency-census
// assertions of TestLoadPointLeavesEngineClean): no attached flights, an
// all-zero residency census and the free configuration. It reports aggregate
// violation counts, so the result does not depend on map iteration order.
// The daemon's stress tests call it after mixed-workload runs, mid-stream
// cancellations and shutdown.
func (p *EnginePool) VerifyClean() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var flights, residency, contention, total int
	//meshvet:ordered aggregate violation counts are order-insensitive
	for _, sims := range p.idle {
		for _, sim := range sims {
			total++
			eng := sim.engine
			flights += len(eng.Flights())
			for _, r := range eng.ResidencyCensus() {
				if r != 0 {
					residency++
				}
			}
			if eng.ContentionEnabled() {
				contention++
			}
		}
	}
	if flights == 0 && residency == 0 && contention == 0 {
		return nil
	}
	return fmt.Errorf("ndmesh: engine pool dirty across %d idle simulations: %d attached flights, %d nonzero residency counters, %d with contention enabled",
		total, flights, residency, contention)
}
