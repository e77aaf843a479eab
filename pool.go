package ndmesh

// This file is the simulation-reuse lifecycle under every sweep: one
// EnginePool, a concurrency-safe reservoir of warm Simulations keyed by
// (mesh shape, λ), that every job of runGrid (rungrid.go) checks its
// simulations out of (get) and returns them to (put) once it has read its
// result, so a trial restart is a Reset instead of a construction. A sweep
// runs against the caller's pool (the Pool field of LoadSweepOptions /
// LoadOptions; the meshd daemon's shared one) or against a private one of
// its own — as meshsim's -trials do, through RouteSweepWorkers. A pooled
// simulation keeps, besides its engine and information plane, the load run
// its cells rewind (Simulation.load: collector, rng streams, sources,
// patterns, fault-placement scratch) and its own route.Oracle, so a warm load
// cell allocates nothing. Its oracle's table outlives the cell, but its
// fields are keyed on the mesh version, which Reset advances, so the table
// is storage, not state. Only a simulation that has served an oracle cell
// holds one: an arena that doubles toward at most min(n, 2^20/n)·n int32
// entries (4 MiB per simulation at most) and a row and a queue of n.
//
// A simulation is rewound once, where it comes back: put calls
// Simulation.Reset, which restores the state NewSimulation builds — no
// flights, the free configuration, no probe, no load cell's wiring — on
// every exit of every job, a cancel or an error included, and get hands an
// idle simulation out as it is. The Reset contract (every layer rewinds
// without reallocating, pinned by reset_test.go) is what makes reuse
// sound: a reused simulation is indistinguishable from a fresh one, so
// which warm simulation a job receives can never reach its results, and
// EnginePool.VerifyClean audits the reservoir
// (TestLoadPointLeavesEngineClean).

import (
	"errors"
	"fmt"
	"sync"

	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
)

// ErrCanceled is returned by the sweeps and LoadRun when the caller's
// Cancel hook reports cancellation mid-run. The aborted run's simulation
// goes back through the same put as a completed one, so it comes back
// clean.
var ErrCanceled = errors.New("ndmesh: run canceled")

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

// setSchedule copies a generated schedule into the simulation. The copy (not
// an alias) keeps the sim's schedule buffer self-owned across resets.
func setSchedule(sim *Simulation, sched *fault.Schedule) {
	sim.sched.Events = append(sim.sched.Events[:0], sched.Events...)
}

// PoolStats counts an EnginePool's checkout traffic, one checkout per
// simulation a sweep cell uses. The daemon's result cache is validated
// against it: a cache-hit submission must leave Acquired and Built
// unchanged (no engine was touched).
type PoolStats struct {
	// Acquired counts checkouts served by a warm idle simulation (put
	// rewound it); Built counts checkouts that had to construct one.
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

// EnginePool is a reservoir of warm, Reset-recycled Simulations keyed by
// (mesh shape, λ). It is safe for concurrent use: the jobs of one sweep,
// and many sweeps at once (the daemon's concurrent jobs), check
// simulations out and return them. A nil *EnginePool is valid everywhere
// one is accepted and means "no sharing": the sweep runs on a private pool
// of its own.
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

// get returns a fault-free simulation of the given shape and λ (λ < 1
// meaning 1, as in NewSimulation): a warm idle one, as put left it, or else
// a new one. The caller puts it back once it has read its results.
func (p *EnginePool) get(dims []int, lambda int) (*Simulation, error) {
	key := newSimKey(dims, max(lambda, 1))
	p.mu.Lock()
	sims := p.idle[key]
	if n := len(sims); n > 0 {
		sim := sims[n-1]
		p.idle[key] = sims[:n-1]
		p.stats.Acquired++
		p.mu.Unlock()
		return sim, nil
	}
	p.mu.Unlock()
	sim, err := NewSimulation(Config{Dims: dims, Lambda: lambda})
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.stats.Built++
	p.mu.Unlock()
	return sim, nil
}

// put rewinds a simulation and returns it to the idle reservoir under its
// own key, or drops it, unrewound, when the key's cap is full. The rewind
// runs outside the mutex, so puts of other jobs do not wait on it; a put
// that finds the cap filled meanwhile drops the rewound simulation.
func (p *EnginePool) put(sim *Simulation) {
	if p.file(sim, false) {
		sim.Reset()
		p.file(sim, true)
	}
}

// file reports whether sim's key has room for it, counting a drop when it
// has none, and with add files sim there.
func (p *EnginePool) file(sim *Simulation, add bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.maxIdle > 0 && len(p.idle[sim.key]) >= p.maxIdle {
		p.stats.Dropped++
		return false
	}
	if add {
		p.idle[sim.key] = append(p.idle[sim.key], sim)
		p.stats.Released++
	}
	return true
}

// VerifyClean audits every idle simulation against the clean-engine
// contract put's rewind guarantees (the residency-census assertions of
// TestLoadPointLeavesEngineClean): no attached flights, an
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
