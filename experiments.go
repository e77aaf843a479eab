package ndmesh

// This file implements the experiment harness of DESIGN.md's index: the
// simulation studies the paper carries over from its 2-D/3-D predecessors
// ([9], [10]) — convergence speed of the information constructions (E14),
// graceful degradation of routing under dynamic faults (E15), the memory
// footprint of limited-global information (E16), oscillation/locality of
// updates (E17) — and the randomized validation of Theorems 3, 4 and 5
// (E11-E13). cmd/sweep prints these as tables; bench_test.go wraps them as
// benchmarks; EXPERIMENTS.md records representative output.
//
// Every sweep runs its trials on the parallel experiment engine
// (internal/par) with the following determinism guarantee: for a fixed
// seed, the results are byte-identical for every worker count, including
// workers=1 (the serial path). This holds because (a) each trial's random
// stream is split from the sweep seed in trial-index order before the
// fan-out, exactly as the former serial loops drew them, (b) each trial
// writes only its own result slot, and (c) aggregation — including
// order-sensitive floating-point accumulation — happens serially in trial
// order after all workers finish. experiments_parallel_test.go asserts the
// guarantee for every sweep. The plain sweep functions use all available
// cores; the *Workers variants take an explicit worker count (values < 1
// mean GOMAXPROCS).
//
// Each worker reuses one Simulation per (mesh shape, λ) across all the
// trials it claims — Simulation.Reset rewinds mesh, protocols, store and
// engine without reallocating — so trial restarts cost microseconds, not
// allocations.

import (
	"fmt"

	"ndmesh/internal/detour"
	"ndmesh/internal/engine"
	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/par"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
	"ndmesh/internal/safety"
	"ndmesh/internal/stats"
	"ndmesh/internal/traffic"
)

// ---------------------------------------------------------------------------
// Worker-local simulation reuse.

// simPool is the per-worker state of a sweep: one reusable Simulation per
// (shape, λ) pair. A pool is confined to a single worker goroutine, so no
// locking is needed; pools never share simulations. When shared is
// non-nil (a load sweep run against an EnginePool — see pool.go), get
// first tries the shared reservoir's warm simulations before constructing,
// and runGrid hands every held simulation back when its fan-out ends.
type simPool struct {
	sims   map[simKey]*Simulation
	shared *EnginePool
}

type simKey struct {
	dims   string
	lambda int
}

func newSimPool() *simPool { return &simPool{sims: make(map[simKey]*Simulation)} }

// get returns a fault-free simulation of the given shape and λ, resetting
// and reusing a previously built one when possible — the worker's own
// first, then the shared reservoir's, then a fresh construction.
func (p *simPool) get(dims []int, lambda int) (*Simulation, error) {
	key := simKey{fmt.Sprint(dims), lambda}
	if sim, ok := p.sims[key]; ok {
		sim.Reset()
		return sim, nil
	}
	if p.shared != nil {
		if sim := p.shared.take(key); sim != nil {
			sim.Reset()
			p.sims[key] = sim
			return sim, nil
		}
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
	s := sim.schedule()
	s.Events = append(s.Events[:0], sched.Events...)
}

// splitN pre-draws n child rng streams from the sweep seed, in trial-index
// order — the serial prelude that makes the parallel fan-out deterministic.
func splitN(seed uint64, n int) []*rng.Source {
	r := rng.New(seed)
	out := make([]*rng.Source, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// ---------------------------------------------------------------------------
// E14: convergence of the information constructions.

// ConvergenceRow reports the stabilization of one fault occurrence while a
// single block grows: the a_i/b_i/c_i of Table 1, the locality (affected
// nodes) and the information cost.
type ConvergenceRow struct {
	Dims       string
	N          int
	FaultIndex int
	EMax       int // block edge after this occurrence
	ARounds    int // labeling stabilization (a_i)
	BRounds    int // identification stabilization (b_i)
	CRounds    int // boundary stabilization (c_i)
	Affected   int // nodes that changed status
	Records    int // total stored records after stabilization
}

// ConvergenceSweep grows one block fault-by-fault (clustered) in each of
// the given shapes and reports per-occurrence convergence. The paper's
// claim under test: information is collected and distributed quickly — the
// rounds track the block perimeter, not the mesh size.
func ConvergenceSweep(shapes [][]int, faultsPerShape int, seed uint64) ([]ConvergenceRow, error) {
	return ConvergenceSweepWorkers(shapes, faultsPerShape, seed, 0)
}

// ConvergenceSweepWorkers is ConvergenceSweep with an explicit worker count
// (each shape is one parallel job).
func ConvergenceSweepWorkers(shapes [][]int, faultsPerShape int, seed uint64, workers int) ([]ConvergenceRow, error) {
	rngs := splitN(seed, len(shapes))
	results := make([][]ConvergenceRow, len(shapes))
	err := par.ForState(workers, len(shapes), newSimPool, func(p *simPool, i int) error {
		dims := shapes[i]
		sim, err := p.get(dims, 1)
		if err != nil {
			return err
		}
		shape := sim.gridShape()
		// Long, conforming intervals: each occurrence stabilizes fully.
		interval := 10*shape.Diameter() + 60
		sched, err := fault.Generate(shape, faultsPerShape, fault.Options{
			Interval:  interval,
			Start:     2,
			Clustered: true,
		}, rngs[i])
		if err != nil {
			return err
		}
		setSchedule(sim, sched)
		sim.eng().Run((faultsPerShape + 2) * interval)
		for _, ev := range sim.events() {
			results[i] = append(results[i], ConvergenceRow{
				Dims:       shape.String(),
				N:          shape.NumNodes(),
				FaultIndex: ev.Index,
				EMax:       ev.EMaxAfter,
				ARounds:    ev.ARounds,
				BRounds:    ev.BRounds,
				CRounds:    ev.CRounds,
				Affected:   ev.Affected,
				Records:    ev.RecordsAfter,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []ConvergenceRow
	for _, rs := range results {
		rows = append(rows, rs...)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E15: graceful degradation under dynamic faults.

// DegradationRow aggregates routing metrics for one (interval, router)
// cell over many randomized trials.
type DegradationRow struct {
	Interval   int
	Router     string
	Trials     int
	SuccessPct float64
	MeanSteps  float64
	MeanExtra  float64 // steps beyond the initial distance
	MeanBack   float64 // backtracks
	P95Extra   int
}

// DegradationOptions configures the degradation sweep.
type DegradationOptions struct {
	Dims      []int
	Faults    int
	Intervals []int
	Routers   []string
	Trials    int
	Lambda    int
	// Workers is the parallel fan-out width; < 1 means GOMAXPROCS. The
	// results are identical for every value (see the package comment).
	Workers int
}

// DefaultDegradation returns the standard configuration: a 16x16 mesh,
// 6 dynamic faults, intervals from hostile (2 steps) to conforming (64),
// all three fault-tolerant routers.
func DefaultDegradation() DegradationOptions {
	return DegradationOptions{
		Dims:      []int{16, 16},
		Faults:    6,
		Intervals: []int{2, 4, 8, 16, 32, 64},
		Routers:   []string{"limited", "oracle", "blind"},
		Trials:    40,
		Lambda:    2,
	}
}

// DegradationSweep measures routing under dynamic faults: every trial draws
// a source/destination pair and a fault schedule, and replays the identical
// scenario under each router. The paper's claim under test: with limited
// global information the routing degrades gracefully as intervals shrink,
// tracking the oracle and far below the blind searcher. Trials run on the
// parallel engine (opt.Workers wide).
func DegradationSweep(opt DegradationOptions, seed uint64) ([]DegradationRow, error) {
	shape, err := grid.NewShape(opt.Dims...)
	if err != nil {
		return nil, err
	}
	// One job per (interval, trial), in interval-major order — the order the
	// serial loop visited them and the order the trial rngs are split in.
	jobs := len(opt.Intervals) * opt.Trials
	rngs := splitN(seed, jobs)
	results := make([][]RouteResult, jobs)
	err = par.ForState(opt.Workers, jobs, newSimPool, func(p *simPool, j int) error {
		interval := opt.Intervals[j/opt.Trials]
		trial := j % opt.Trials
		tr := rngs[j]
		src, dst := drawPair(shape, tr)
		// Half the trials anchor the first fault on the route midpoint
		// so the schedules actually intersect the traffic.
		genOpt := fault.Options{
			Interval:      interval,
			Start:         2,
			Exclude:       []grid.NodeID{src, dst},
			ExcludeRadius: 1,
			MinSpacing:    4,
		}
		if trial%2 == 0 {
			genOpt.Anchor = midpoint(shape, src, dst)
			genOpt.UseAnchor = true
		}
		sched, err := fault.Generate(shape, opt.Faults, genOpt, tr)
		if err != nil {
			genOpt.UseAnchor = false
			sched, err = fault.Generate(shape, opt.Faults, genOpt, tr)
			if err != nil {
				return err
			}
		}
		out := make([]RouteResult, len(opt.Routers))
		for ri, router := range opt.Routers {
			res, err := p.replay(opt.Dims, opt.Lambda, sched, src, dst, router)
			if err != nil {
				return err
			}
			out[ri] = res
		}
		results[j] = out
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Serial aggregation in trial order.
	type cell struct {
		steps, extra, back stats.Summary
		extras             []int
		success, trials    int
	}
	cells := make(map[string]*cell)
	key := func(interval int, router string) string { return fmt.Sprintf("%d/%s", interval, router) }
	for j, out := range results {
		interval := opt.Intervals[j/opt.Trials]
		for ri, router := range opt.Routers {
			res := out[ri]
			c := cells[key(interval, router)]
			if c == nil {
				c = &cell{}
				cells[key(interval, router)] = c
			}
			c.trials++
			if res.Arrived {
				c.success++
				c.steps.AddInt(res.Steps)
				c.extra.AddInt(res.ExtraHops)
				c.back.AddInt(res.Backtracks)
				c.extras = append(c.extras, res.ExtraHops)
			}
		}
	}

	var rows []DegradationRow
	for _, interval := range opt.Intervals {
		for _, router := range opt.Routers {
			c := cells[key(interval, router)]
			if c == nil {
				continue
			}
			p95 := stats.Percentiles(c.extras, 0.95)
			rows = append(rows, DegradationRow{
				Interval:   interval,
				Router:     router,
				Trials:     c.trials,
				SuccessPct: 100 * float64(c.success) / float64(c.trials),
				MeanSteps:  c.steps.Mean(),
				MeanExtra:  c.extra.Mean(),
				MeanBack:   c.back.Mean(),
				P95Extra:   p95[0],
			})
		}
	}
	return rows, nil
}

// replay runs one (schedule, pair, router) scenario on a reused simulation
// from the worker's pool.
func (p *simPool) replay(dims []int, lambda int, sched *fault.Schedule, src, dst grid.NodeID, router string) (RouteResult, error) {
	sim, err := p.get(dims, lambda)
	if err != nil {
		return RouteResult{}, err
	}
	setSchedule(sim, sched)
	r, err := route.ByName(router)
	if err != nil {
		return RouteResult{}, err
	}
	fl, err := sim.eng().Inject(src, dst, r)
	if err != nil {
		return RouteResult{}, err
	}
	budget := 16*sim.gridShape().Diameter() + sched.LastStep() + 4*sim.NumNodes()
	sim.eng().RunFlights(budget)
	return sim.result(fl), nil
}

// midpoint returns the node halfway along the componentwise geodesic from
// src to dst.
func midpoint(shape *grid.Shape, src, dst grid.NodeID) grid.NodeID {
	c := make(grid.Coord, shape.Dims())
	for axis := range c {
		c[axis] = (shape.Component(src, axis) + shape.Component(dst, axis)) / 2
	}
	return shape.Index(c)
}

// pathPoint returns the node at the given fraction of the lowest-axis
// (dimension-order) path from src to dst — where a LowestAxis-policy
// message will actually travel.
func pathPoint(shape *grid.Shape, src, dst grid.NodeID, frac float64) grid.NodeID {
	total := shape.Distance(src, dst)
	target := int(frac * float64(total))
	c := shape.CoordOf(src)
	d := shape.CoordOf(dst)
	steps := 0
	for axis := 0; axis < shape.Dims() && steps < target; axis++ {
		for c[axis] != d[axis] && steps < target {
			if c[axis] < d[axis] {
				c[axis]++
			} else {
				c[axis]--
			}
			steps++
		}
	}
	return shape.Index(c)
}

// drawPair draws distinct source/destination with distance at least half
// the diameter, both off the outermost surface. The implementation lives
// in internal/traffic (DrawLongHaulPair) so the experiment sweeps and the
// load subsystem share one endpoint generator; its rng consumption is
// pinned by the golden sweep tests.
func drawPair(shape *grid.Shape, r *rng.Source) (grid.NodeID, grid.NodeID) {
	return traffic.DrawLongHaulPair(shape, r)
}

// ---------------------------------------------------------------------------
// E15b: the λ ablation — how fast must information spread to help?

// LambdaRow reports routing quality as a function of λ (information rounds
// per routing step) when the message is injected during the converging
// period.
type LambdaRow struct {
	Lambda     int
	Router     string
	Trials     int
	SuccessPct float64
	MeanExtra  float64
	MeanBack   float64
}

// LambdaSweep injects messages at the same step faults start arriving and
// varies λ. The expected shape: the limited router's detour falls toward
// the oracle's as λ grows (information propagates faster relative to the
// message), while the blind router is flat (it has no information to
// receive) — the paper's "fault information can be distributed quickly to
// help the routing process".
func LambdaSweep(dims []int, lambdas []int, trials int, seed uint64) ([]LambdaRow, error) {
	return LambdaSweepWorkers(dims, lambdas, trials, seed, 0)
}

// LambdaSweepWorkers is LambdaSweep with an explicit worker count (each
// (λ, router, case) replay is one parallel job).
func LambdaSweepWorkers(dims []int, lambdas []int, trials int, seed uint64, workers int) ([]LambdaRow, error) {
	shape, err := grid.NewShape(dims...)
	if err != nil {
		return nil, err
	}
	routers := []string{"limited", "oracle", "blind"}
	type trialCase struct {
		src, dst grid.NodeID
		sched    *fault.Schedule
	}
	// Case generation is the serial prelude: one rng split per case, in
	// case order.
	r := rng.New(seed)
	cases := make([]trialCase, 0, trials)
	for i := 0; i < trials; i++ {
		tr := r.Split()
		src, dst := drawPair(shape, tr)
		// Adversarial placement: the cluster grows from a point on the
		// message's actual trajectory (the lowest-axis path), so the block
		// forms where the message is about to pass.
		mid := pathPoint(shape, src, dst, 0.55)
		sched, err := fault.Generate(shape, 4, fault.Options{
			Interval:      6,
			Start:         2,
			Exclude:       []grid.NodeID{src, dst},
			ExcludeRadius: 1,
			Clustered:     true,
			Anchor:        mid,
			UseAnchor:     true,
		}, tr)
		if err != nil {
			// The midpoint can violate constraints (border, too close to
			// an endpoint); fall back to unanchored growth.
			sched, err = fault.Generate(shape, 4, fault.Options{
				Interval: 6, Start: 2,
				Exclude: []grid.NodeID{src, dst}, ExcludeRadius: 1,
				Clustered: true,
			}, tr)
			if err != nil {
				return nil, err
			}
		}
		cases = append(cases, trialCase{src, dst, sched})
	}

	// Replays carry no randomness of their own: fan every (λ, router, case)
	// combination out and aggregate in the serial loop's visit order.
	jobs := len(lambdas) * len(routers) * len(cases)
	results := make([]RouteResult, jobs)
	err = par.ForState(workers, jobs, newSimPool, func(p *simPool, j int) error {
		li := j / (len(routers) * len(cases))
		ri := j / len(cases) % len(routers)
		ci := j % len(cases)
		tc := cases[ci]
		res, err := p.replay(dims, lambdas[li], tc.sched, tc.src, tc.dst, routers[ri])
		if err != nil {
			return err
		}
		results[j] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	var rows []LambdaRow
	j := 0
	for _, lambda := range lambdas {
		for _, router := range routers {
			var extra, back stats.Summary
			success := 0
			for range cases {
				res := results[j]
				j++
				if res.Arrived {
					success++
					extra.AddInt(res.ExtraHops)
					back.AddInt(res.Backtracks)
				}
			}
			rows = append(rows, LambdaRow{
				Lambda: lambda, Router: router, Trials: trials,
				SuccessPct: 100 * float64(success) / float64(trials),
				MeanExtra:  extra.Mean(),
				MeanBack:   back.Mean(),
			})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E16: memory footprint of the limited-information model.

// MemoryRow compares the limited model's stored records against the
// traditional global model (every node stores every fault's information).
type MemoryRow struct {
	Dims          string
	N             int
	Faults        int
	Records       int     // limited: total block records stored
	NodesWithInfo int     // limited: nodes holding any record
	NodePct       float64 // NodesWithInfo / N
	GlobalEntries int     // traditional: N entries per fault event
}

// MemorySweep stabilizes F scattered faults on each shape and reports the
// information placement size.
func MemorySweep(shapes [][]int, faults []int, seed uint64) ([]MemoryRow, error) {
	return MemorySweepWorkers(shapes, faults, seed, 0)
}

// MemorySweepWorkers is MemorySweep with an explicit worker count (each
// (shape, F) cell is one parallel job).
func MemorySweepWorkers(shapes [][]int, faults []int, seed uint64, workers int) ([]MemoryRow, error) {
	jobs := len(shapes) * len(faults)
	rngs := splitN(seed, jobs)
	rows := make([]MemoryRow, jobs)
	err := par.ForState(workers, jobs, newSimPool, func(p *simPool, j int) error {
		dims := shapes[j/len(faults)]
		f := faults[j%len(faults)]
		sim, err := p.get(dims, 1)
		if err != nil {
			return err
		}
		shape := sim.gridShape()
		// Spacing adapts to the interior width so the constraint stays
		// satisfiable on small-radix meshes (6^4 has only a 4-wide
		// interior).
		spacing := 4
		for _, k := range dims {
			if k-3 < spacing {
				spacing = k - 3
			}
		}
		if spacing < 2 {
			spacing = 2
		}
		sched, err := fault.Generate(shape, f, fault.Options{MinSpacing: spacing}, rngs[j])
		if err != nil {
			return err
		}
		sched.Apply(sim.fabric())
		// Seed everything at once and stabilize.
		for _, ev := range sched.Events {
			sim.coreModel().Labeling.Seed(ev.Node)
			sim.coreModel().Detector.Seed(ev.Node)
		}
		sim.Stabilize()
		rows[j] = MemoryRow{
			Dims:          shape.String(),
			N:             shape.NumNodes(),
			Faults:        f,
			Records:       sim.InfoRecords(),
			NodesWithInfo: sim.NodesWithInfo(),
			NodePct:       100 * float64(sim.NodesWithInfo()) / float64(shape.NumNodes()),
			GlobalEntries: shape.NumNodes() * f,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E17: update oscillation and locality during the converging period.

// OscillationRow reports, for one fault-arrival interval, how much status
// churn the labeling exhibits and how local it stays.
type OscillationRow struct {
	Interval        int
	Trials          int
	MeanTransitions float64 // status transitions per occurrence
	MeanAffected    float64 // distinct nodes changed per occurrence
	MeanARounds     float64
	MaxARounds      int
}

// OscillationSweep injects clustered fault bursts at varying intervals and
// measures the labeling churn per occurrence. The paper's claim under test:
// the update converges quickly and only affected nodes update (reduced
// oscillation compared to routing-table flooding).
func OscillationSweep(dims []int, faults int, intervals []int, trials int, seed uint64) ([]OscillationRow, error) {
	return OscillationSweepWorkers(dims, faults, intervals, trials, seed, 0)
}

// OscillationSweepWorkers is OscillationSweep with an explicit worker count
// (each (interval, trial) run is one parallel job).
func OscillationSweepWorkers(dims []int, faults int, intervals []int, trials int, seed uint64, workers int) ([]OscillationRow, error) {
	type evStat struct{ affected, arounds int }
	jobs := len(intervals) * trials
	rngs := splitN(seed, jobs)
	results := make([][]evStat, jobs)
	err := par.ForState(workers, jobs, newSimPool, func(p *simPool, j int) error {
		interval := intervals[j/trials]
		sim, err := p.get(dims, 1)
		if err != nil {
			return err
		}
		shape := sim.gridShape()
		sched, err := fault.Generate(shape, faults, fault.Options{
			Interval:  interval,
			Start:     2,
			Clustered: true,
		}, rngs[j])
		if err != nil {
			return err
		}
		setSchedule(sim, sched)
		sim.eng().Run(faults*interval + 10*shape.Diameter() + 100)
		for _, ev := range sim.events() {
			results[j] = append(results[j], evStat{ev.Affected, ev.ARounds})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var rows []OscillationRow
	for ii, interval := range intervals {
		var affected, arounds stats.Summary
		maxA := 0
		for t := 0; t < trials; t++ {
			for _, ev := range results[ii*trials+t] {
				affected.AddInt(ev.affected)
				arounds.AddInt(ev.arounds)
				if ev.arounds > maxA {
					maxA = ev.arounds
				}
			}
		}
		rows = append(rows, OscillationRow{
			Interval:        interval,
			Trials:          trials,
			MeanTransitions: affected.Mean(), // one transition per affected node per wave front
			MeanAffected:    affected.Mean(),
			MeanARounds:     arounds.Mean(),
			MaxARounds:      maxA,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E18: traffic — many concurrent messages under dynamic faults.

// TrafficRow aggregates a many-message run: the paper's motivation is that
// routing difficulty "will increase routing delay and cause traffic
// congestion"; this experiment quantifies the aggregate effect of the
// information model on a whole message population.
type TrafficRow struct {
	Router     string
	Messages   int
	ArrivedPct float64
	MeanExtra  float64
	TotalBack  int
	MaxSteps   int
}

// TrafficSweep injects many messages with random endpoints into one
// dynamic-fault scenario per router and reports population metrics.
func TrafficSweep(dims []int, messages int, faults int, interval int, seed uint64) ([]TrafficRow, error) {
	return TrafficSweepWorkers(dims, messages, faults, interval, seed, 0)
}

// TrafficSweepWorkers is TrafficSweep with an explicit worker count (each
// router's population run is one parallel job).
func TrafficSweepWorkers(dims []int, messages int, faults int, interval int, seed uint64, workers int) ([]TrafficRow, error) {
	shape, err := grid.NewShape(dims...)
	if err != nil {
		return nil, err
	}
	r := rng.New(seed)
	// One endpoint set and one schedule shared by all routers (serial
	// prelude; the per-router runs draw no randomness). Endpoints come
	// from the traffic subsystem's long-haul generator, the same stream
	// discipline the saturation sweep uses.
	type pair struct{ src, dst grid.NodeID }
	pairs := make([]pair, messages)
	var exclude []grid.NodeID
	for i := range pairs {
		s, d := traffic.DrawLongHaulPair(shape, r)
		pairs[i] = pair{s, d}
		exclude = append(exclude, s, d)
	}
	sched, err := fault.Generate(shape, faults, fault.Options{
		Interval:      interval,
		Start:         2,
		Exclude:       exclude,
		ExcludeRadius: 0,
		MinSpacing:    3,
	}, r)
	if err != nil {
		return nil, err
	}
	routers := []string{"limited", "oracle", "blind"}
	rows := make([]TrafficRow, len(routers))
	err = par.ForState(workers, len(routers), newSimPool, func(p *simPool, j int) error {
		router := routers[j]
		sim, err := p.get(dims, 2)
		if err != nil {
			return err
		}
		setSchedule(sim, sched)
		var flights []*engine.Flight
		for _, pr := range pairs {
			rt, err := route.ByName(router)
			if err != nil {
				return err
			}
			fl, err := sim.eng().Inject(pr.src, pr.dst, rt)
			if err != nil {
				return err
			}
			flights = append(flights, fl)
		}
		budget := 16*shape.Diameter() + sched.LastStep() + 4*shape.NumNodes()
		sim.eng().RunFlights(budget)
		row := TrafficRow{Router: router, Messages: messages}
		var extra stats.Summary
		arrived := 0
		for _, fl := range flights {
			res := sim.result(fl)
			if res.Arrived {
				arrived++
				extra.AddInt(res.ExtraHops)
			}
			row.TotalBack += res.Backtracks
			if res.Steps > row.MaxSteps {
				row.MaxSteps = res.Steps
			}
		}
		row.ArrivedPct = 100 * float64(arrived) / float64(messages)
		row.MeanExtra = extra.Mean()
		rows[j] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E11-E13: randomized validation of Theorems 3, 4 and 5.

// TheoremReport summarizes a randomized bound-validation sweep.
type TheoremReport struct {
	Trials int
	// SafeTrials/UnsafeTrials partition by Theorem 2's classification at
	// injection time.
	SafeTrials, UnsafeTrials int
	// PremiseSkipped counts safe trials excluded because the routing was
	// already non-minimal against the pre-injection blocks alone. The
	// theorems inherit from [14] the assumption that fault-information
	// routing from a safe source is minimal w.r.t. fully-constructed
	// blocks; Algorithm 3's greedy priority guarantees that for one block
	// but not for every multi-block geometry, so such trials fall outside
	// the theorems' premise (see EXPERIMENTS.md).
	PremiseSkipped int
	// Violations per theorem (0 expected on conforming schedules).
	Violations3, Violations4, Violations5 int
	// Arrived counts successful routings.
	Arrived int
	// MeanExtraHops is the measured detour cost.
	MeanExtraHops float64
	// MeanDetourBound is the mean Theorem 4/5 bound for comparison.
	MeanDetourBound float64
}

// theoremTrial is one trial's contribution to a TheoremReport, merged in
// trial order by the aggregator.
type theoremTrial struct {
	safe, unsafeSrc bool
	noPath          bool // unsafe with no enabled path: outside every premise
	premiseSkipped  bool
	arrived         bool
	extra           int
	v3, v4, v5      int
	bound           int
	hasBound        bool
}

// TheoremSweep runs randomized conforming dynamic-fault scenarios and
// checks every measured trace against Theorems 3, 4 and 5.
func TheoremSweep(dims []int, trials int, seed uint64) (TheoremReport, error) {
	return TheoremSweepWorkers(dims, trials, seed, 0)
}

// TheoremSweepWorkers is TheoremSweep with an explicit worker count (each
// trial is one parallel job).
func TheoremSweepWorkers(dims []int, trials int, seed uint64, workers int) (TheoremReport, error) {
	rep := TheoremReport{Trials: trials}
	rngs := splitN(seed, trials)
	results := make([]theoremTrial, trials)
	err := par.ForState(workers, trials, newSimPool, func(p *simPool, trial int) error {
		rr := rngs[trial]
		sim, err := p.get(dims, 2)
		if err != nil {
			return err
		}
		shape := sim.gridShape()
		src, dst := drawPair(shape, rr)
		// Conforming schedule: isolated single-node blocks, intervals far
		// beyond stabilization; p = 2 occurrences before injection.
		interval := 6*shape.Diameter() + 40
		const preFaults = 2
		faults := preFaults + 4
		sched, err := fault.Generate(shape, faults, fault.Options{
			Interval:      interval,
			Start:         2,
			Exclude:       []grid.NodeID{src, dst},
			ExcludeRadius: 1,
			MinSpacing:    4,
		}, rr)
		if err != nil {
			return err
		}
		setSchedule(sim, sched)
		// Run until just after occurrence p, then inject.
		injectAt := 2 + preFaults*interval - interval/2
		sim.RunSteps(injectAt)
		var res theoremTrial
		unsafePath, hasPath := 0, true
		if !sim.SourceSafe(sim.CoordOf(src), sim.CoordOf(dst)) {
			res.unsafeSrc = true
			unsafePath, hasPath = safety.PathExists(sim.fabric(), src, dst)
			if !hasPath {
				res.noPath = true
				results[trial] = res
				return nil // outside every theorem's premise
			}
		} else {
			res.safe = true
			// Premise check: the theorems charge detours only to new
			// blocks, assuming the routing is minimal against the blocks
			// that already exist. Verify on a static replay with the
			// pre-injection faults only; skip the bounds otherwise.
			if !p.staticallyMinimal(dims, sched, preFaults, src, dst) {
				res.premiseSkipped = true
				results[trial] = res
				return nil
			}
		}
		rtr := route.Limited{}
		fl, err := sim.eng().Inject(src, dst, rtr)
		if err != nil {
			return err
		}
		sim.eng().RunFlights(40*shape.Diameter() + faults*interval)

		tr, ivs, pIv := buildTrace(sim, fl, preFaults)
		if fl.Msg.Arrived {
			res.arrived = true
			res.extra = tr.ExtraSteps()
		}
		if !res.unsafeSrc { // safe source
			res.v3 = len(detour.CheckTheorem3(tr, pIv, ivs[1:]))
			res.v4 = len(detour.CheckTheorem4(tr, ivs))
			k := detour.KBound(tr.D0, tr.Start, ivs)
			res.bound, res.hasBound = detour.MaxDetourBound(k, ivs), true
		} else {
			res.v5 = len(detour.CheckTheorem5(tr, unsafePath, ivs))
			k := detour.KBound(unsafePath, tr.Start, ivs)
			res.bound, res.hasBound = detour.MaxDetourBound(k, ivs), true
		}
		results[trial] = res
		return nil
	})
	if err != nil {
		return rep, err
	}

	var extra, bound stats.Summary
	for _, res := range results {
		switch {
		case res.unsafeSrc:
			rep.UnsafeTrials++
		case res.safe:
			rep.SafeTrials++
		}
		if res.noPath || res.premiseSkipped {
			if res.premiseSkipped {
				rep.PremiseSkipped++
			}
			continue
		}
		if res.arrived {
			rep.Arrived++
			extra.AddInt(res.extra)
		}
		rep.Violations3 += res.v3
		rep.Violations4 += res.v4
		rep.Violations5 += res.v5
		if res.hasBound {
			bound.AddInt(res.bound)
		}
	}
	rep.MeanExtraHops = extra.Mean()
	rep.MeanDetourBound = bound.Mean()
	return rep, nil
}

// staticallyMinimal replays src->dst on a mesh holding only the first p
// faults (stabilized, no dynamics) and reports whether the limited router
// achieves the minimal distance — the implicit premise of Theorems 3/4.
func (pl *simPool) staticallyMinimal(dims []int, sched *fault.Schedule, p int, src, dst grid.NodeID) bool {
	sim, err := pl.get(dims, 1)
	if err != nil {
		return false
	}
	applied := 0
	for _, ev := range sched.Events {
		if ev.Kind != fault.Fail || applied >= p {
			break
		}
		sim.coreModel().ApplyFault(ev.Node)
		applied++
	}
	sim.Stabilize()
	fl, err := sim.eng().Inject(src, dst, route.Limited{})
	if err != nil {
		return false
	}
	sim.eng().RunFlights(8 * sim.gridShape().Diameter())
	return fl.Msg.Arrived && fl.Msg.Hops == sim.gridShape().Distance(src, dst)
}

// buildTrace converts an engine flight + event log into the detour
// package's inputs: the trace, the intervals from occurrence p onward, and
// interval p itself.
func buildTrace(sim *Simulation, fl *engine.Flight, p int) (detour.Trace, []detour.Interval, detour.Interval) {
	shape := sim.gridShape()
	msg := fl.Msg
	tr := detour.Trace{
		D0:      shape.Distance(msg.Src, msg.Dst),
		Start:   fl.StartStep,
		P:       p,
		DAt:     append([]int(nil), fl.DistAt...),
		EndStep: fl.StartStep + msg.Steps,
		Arrived: msg.Arrived,
		Hops:    msg.Hops,
	}
	events := sim.events()
	var ivs []detour.Interval
	for i := p - 1; i < len(events); i++ {
		if i < 0 {
			continue
		}
		ev := events[i]
		d := 0
		if i+1 < len(events) {
			d = events[i+1].Step - ev.Step
		} else {
			d = tr.EndStep - ev.Step + 1
			if d < 1 {
				d = 1
			}
		}
		ivs = append(ivs, detour.Interval{T: ev.Step, D: d, A: ev.ASteps, EMax: ev.EMaxAfter})
	}
	var pIv detour.Interval
	if len(ivs) > 0 {
		pIv = ivs[0]
	} else {
		pIv = detour.Interval{T: tr.Start, D: 1}
	}
	return tr, ivs, pIv
}
