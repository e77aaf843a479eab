package ndmesh

// This file implements the protocol half of the experiment index (E1-E8
// the paper's figures, E9-E13 its theorems, E14-E18 protocol studies,
// E19-E23 the load studies of README.md): the simulation studies the paper carries over from its 2-D/3-D predecessors
// ([9], [10]) — convergence speed of the information constructions (E14),
// graceful degradation of routing under dynamic faults (E15), the memory
// footprint of limited-global information (E16), oscillation/locality of
// updates (E17), whole-population traffic (E18) — and the randomized
// validation of Theorems 3, 4 and 5 (E11-E13). cmd/sweep prints these as
// tables; bench_test.go wraps them as benchmarks; experiments_golden_test.go
// pins representative output.
//
// Every sweep is a grid of jobs handed to runGrid (rungrid.go) plus a
// serial fold over the job-ordered results, which is what makes the rows
// byte-identical for every worker count (workers < 1 means GOMAXPROCS):
// each job draws only from its own pre-split stream and returns only its
// own result, and order-sensitive floating-point accumulation happens in
// the fold. experiments_parallel_test.go asserts the guarantee for every
// sweep. Each job checks its Simulation out of the run's EnginePool
// (pool.go) and puts it back once it has read its result, so a trial
// restart is a Reset, not an allocation.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"ndmesh/internal/detour"
	"ndmesh/internal/engine"
	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
	"ndmesh/internal/safety"
	"ndmesh/internal/stats"
	"ndmesh/internal/traffic"
)

// wrapSweepErr prefixes a failing E11–E18 sweep's error with the sweep and
// the mesh it ran on, as "ndmesh: theorem sweep on 10x10: ...": a fault
// schedule that does not fit a small mesh otherwise reaches the caller
// bare, naming neither.
func wrapSweepErr(err *error, sweep string, dims []int) {
	if *err == nil {
		return
	}
	label := make([]string, len(dims))
	for i, k := range dims {
		label[i] = strconv.Itoa(k)
	}
	*err = fmt.Errorf("ndmesh: %s sweep on %s: %w", sweep, strings.Join(label, "x"), *err)
}

// needCount rejects a trial or message count below one before a sweep
// sizes its job grid by it.
func needCount(name string, n int) error {
	if n < 1 {
		return fmt.Errorf("%s %d < 1", name, n)
	}
	return nil
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

// ConvergenceSweepWorkers grows one block fault-by-fault (clustered) in each
// of the given shapes and reports per-occurrence convergence (each shape is
// one parallel job). The paper's claim under test: information is collected
// and distributed quickly — the rounds track the block perimeter, not the
// mesh size.
func ConvergenceSweepWorkers(shapes [][]int, faultsPerShape int, seed uint64, workers int) ([]ConvergenceRow, error) {
	perShape, err := runGrid(fanOut{workers: workers}, seed, len(shapes),
		func(p *EnginePool, i int, r *rng.Source) (_ []ConvergenceRow, err error) {
			defer wrapSweepErr(&err, "convergence", shapes[i])
			sim, err := p.get(shapes[i], 1)
			if err != nil {
				return nil, err
			}
			defer p.put(sim)
			shape := sim.shape
			// Long, conforming intervals: each occurrence stabilizes fully.
			interval := 10*shape.Diameter() + 60
			sched, err := fault.Generate(shape, faultsPerShape, fault.Options{
				Interval:  interval,
				Start:     2,
				Clustered: true,
			}, r)
			if err != nil {
				return nil, err
			}
			setSchedule(sim, sched)
			sim.engine.Run((faultsPerShape+2)*interval, sim.engine.Done)
			var rows []ConvergenceRow
			for _, ev := range sim.engine.Events {
				rows = append(rows, ConvergenceRow{
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
			return rows, nil
		}, nil)
	if err != nil {
		return nil, err
	}
	return slices.Concat(perShape...), nil
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

// DegradationSweepWorkers measures routing under dynamic faults: every
// trial draws a source/destination pair and a fault schedule, and replays
// the identical scenario under each router (each (interval, trial) is one
// parallel job). The paper's claim under test: with limited global
// information the routing degrades gracefully as intervals shrink, tracking
// the oracle and far below the blind searcher.
func DegradationSweepWorkers(opt DegradationOptions, seed uint64, workers int) (_ []DegradationRow, err error) {
	defer wrapSweepErr(&err, "degradation", opt.Dims)
	if err := needCount("trials", opt.Trials); err != nil {
		return nil, err
	}
	shape, err := grid.NewShape(opt.Dims...)
	if err != nil {
		return nil, err
	}
	// Interval-major job order: the order the rows fold the trials in and
	// the order the trial streams are split in.
	results, err := runGrid(fanOut{workers: workers}, seed, len(opt.Intervals)*opt.Trials,
		func(p *EnginePool, j int, r *rng.Source) ([]RouteResult, error) {
			src, dst, err := traffic.DrawLongHaulPair(shape, r)
			if err != nil {
				return nil, err
			}
			genOpt := fault.Options{
				Interval:      opt.Intervals[j/opt.Trials],
				Start:         2,
				Exclude:       []grid.NodeID{src, dst},
				ExcludeRadius: 1,
				MinSpacing:    4,
			}
			// Half the trials anchor the first fault on the route midpoint
			// so the schedules actually intersect the traffic.
			if j%opt.Trials%2 == 0 {
				genOpt.Anchor, genOpt.UseAnchor = midpoint(shape, src, dst), true
			}
			sched, err := generateAnchored(shape, opt.Faults, genOpt, r)
			if err != nil {
				return nil, err
			}
			out := make([]RouteResult, len(opt.Routers))
			for ri, router := range opt.Routers {
				if out[ri], err = p.replay(opt.Dims, opt.Lambda, sched, src, dst, router); err != nil {
					return nil, err
				}
			}
			return out, nil
		}, nil)
	if err != nil {
		return nil, err
	}

	var rows []DegradationRow
	for ii, interval := range opt.Intervals {
		for ri, router := range opt.Routers {
			var c routeFold
			for _, out := range results[ii*opt.Trials:][:opt.Trials] {
				c.add(out[ri])
			}
			if c.trials == 0 {
				continue
			}
			var p95 [1]int
			stats.Percentiles(p95[:], c.extras, 0.95)
			rows = append(rows, DegradationRow{
				Interval:   interval,
				Router:     router,
				Trials:     c.trials,
				SuccessPct: c.successPct(),
				MeanSteps:  c.steps.Mean(),
				MeanExtra:  c.extra.Mean(),
				MeanBack:   c.back.Mean(),
				P95Extra:   p95[0],
			})
		}
	}
	return rows, nil
}

// generateAnchored is fault.Generate for a schedule whose first fault is
// anchored on the message's route: the anchor can violate the placement
// constraints (border, too close to an endpoint), and the schedule then
// falls back to unanchored placement.
func generateAnchored(shape *grid.Shape, faults int, opt fault.Options, r *rng.Source) (*fault.Schedule, error) {
	sched, err := fault.Generate(shape, faults, opt, r)
	if err != nil && opt.UseAnchor {
		opt.UseAnchor = false
		sched, err = fault.Generate(shape, faults, opt, r)
	}
	return sched, err
}

// routeFold accumulates one cell's routing results in trial order; only
// arrived messages contribute to the step, detour and backtrack statistics.
type routeFold struct {
	steps, extra, back stats.Summary
	extras             []int
	success, trials    int
}

func (c *routeFold) add(res RouteResult) {
	c.trials++
	if res.Arrived {
		c.success++
		c.steps.AddInt(res.Steps)
		c.extra.AddInt(res.ExtraHops)
		c.back.AddInt(res.Backtracks)
		c.extras = append(c.extras, res.ExtraHops)
	}
}

func (c *routeFold) successPct() float64 { return 100 * float64(c.success) / float64(c.trials) }

// replay runs one (schedule, pair, router) scenario on a simulation checked
// out of the pool.
func (p *EnginePool) replay(dims []int, lambda int, sched *fault.Schedule, src, dst grid.NodeID, router string) (RouteResult, error) {
	sim, err := p.get(dims, lambda)
	if err != nil {
		return RouteResult{}, err
	}
	defer p.put(sim)
	setSchedule(sim, sched)
	return sim.routeIDs(src, dst, router)
}

// RouteSweepWorkers routes src -> dst under router once per fault plan, each
// on a fault-free simulation of cfg's shape carrying that plan's faults, and
// returns the results in plan order: what NewSimulation, GenerateFaults and
// Route give for each plan, at every worker count (each plan is one
// parallel job; workers < 1 means GOMAXPROCS). meshsim's -trials is this
// sweep over one scenario under consecutive seeds.
func RouteSweepWorkers(cfg Config, src, dst Coord, router string, plans []FaultPlan, workers int) ([]RouteResult, error) {
	// The plans carry their own seeds: the job streams go unused.
	return runGrid(fanOut{workers: workers}, 0, len(plans),
		func(p *EnginePool, j int, _ *rng.Source) (RouteResult, error) {
			sim, err := p.get(cfg.Dims, cfg.Lambda)
			if err != nil {
				return RouteResult{}, err
			}
			defer p.put(sim)
			if err := sim.GenerateFaults(plans[j]); err != nil {
				return RouteResult{}, err
			}
			return sim.Route(src, dst, router)
		}, nil)
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
// (dimension-order) path from src to dst — where a fault-free Limited
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

// LambdaSweepWorkers injects messages at the same step faults start
// arriving and varies λ (each (λ, router, case) replay is one parallel
// job). The expected shape: the limited router's detour falls toward the
// oracle's as λ grows (information propagates faster relative to the
// message), while the blind router is flat (it has no information to
// receive) — the paper's "fault information can be distributed quickly to
// help the routing process".
func LambdaSweepWorkers(dims []int, lambdas []int, trials int, seed uint64, workers int) (_ []LambdaRow, err error) {
	defer wrapSweepErr(&err, "lambda", dims)
	if err := needCount("trials", trials); err != nil {
		return nil, err
	}
	shape, err := grid.NewShape(dims...)
	if err != nil {
		return nil, err
	}
	routers := []string{"limited", "oracle", "blind"}
	type trialCase struct {
		src, dst grid.NodeID
		sched    *fault.Schedule
	}
	// The cases are shared by every (λ, router) cell, so they are drawn
	// serially before the fan-out: one stream per case, in case order.
	cases := make([]trialCase, trials)
	streams := splitN(seed, trials)
	for i := range streams {
		tr := &streams[i]
		src, dst, err := traffic.DrawLongHaulPair(shape, tr)
		if err != nil {
			return nil, err
		}
		// Adversarial placement: the cluster grows from a point on the
		// message's actual trajectory (the lowest-axis path), so the block
		// forms where the message is about to pass.
		sched, err := generateAnchored(shape, 4, fault.Options{
			Interval:      6,
			Start:         2,
			Exclude:       []grid.NodeID{src, dst},
			ExcludeRadius: 1,
			Clustered:     true,
			Anchor:        pathPoint(shape, src, dst, 0.55),
			UseAnchor:     true,
		}, tr)
		if err != nil {
			return nil, err
		}
		cases[i] = trialCase{src, dst, sched}
	}

	// Replays carry no randomness of their own: the job streams go unused.
	results, err := runGrid(fanOut{workers: workers}, seed, len(lambdas)*len(routers)*trials,
		func(p *EnginePool, j int, _ *rng.Source) (RouteResult, error) {
			tc := cases[j%trials]
			return p.replay(dims, lambdas[j/(len(routers)*trials)], tc.sched, tc.src, tc.dst, routers[j/trials%len(routers)])
		}, nil)
	if err != nil {
		return nil, err
	}

	var rows []LambdaRow
	for li, lambda := range lambdas {
		for ri, router := range routers {
			var c routeFold
			for _, res := range results[(li*len(routers)+ri)*trials:][:trials] {
				c.add(res)
			}
			rows = append(rows, LambdaRow{
				Lambda: lambda, Router: router, Trials: trials,
				SuccessPct: c.successPct(),
				MeanExtra:  c.extra.Mean(),
				MeanBack:   c.back.Mean(),
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

// MemorySweepWorkers stabilizes F scattered faults on each shape and
// reports the information placement size (each (shape, F) cell is one
// parallel job).
func MemorySweepWorkers(shapes [][]int, faults []int, seed uint64, workers int) ([]MemoryRow, error) {
	return runGrid(fanOut{workers: workers}, seed, len(shapes)*len(faults),
		func(p *EnginePool, j int, r *rng.Source) (_ MemoryRow, err error) {
			dims := shapes[j/len(faults)]
			defer wrapSweepErr(&err, "memory", dims)
			f := faults[j%len(faults)]
			sim, err := p.get(dims, 1)
			if err != nil {
				return MemoryRow{}, err
			}
			defer p.put(sim)
			shape := sim.shape
			// Spacing adapts to the interior width so the constraint stays
			// satisfiable on small-radix meshes (6^4 has only a 4-wide
			// interior).
			spacing := max(2, min(4, slices.Min(dims)-3))
			sched, err := fault.Generate(shape, f, fault.Options{MinSpacing: spacing}, r)
			if err != nil {
				return MemoryRow{}, err
			}
			// Apply every fault at once and stabilize.
			for _, ev := range sched.Events {
				sim.model.ApplyFault(ev.Node)
			}
			sim.Stabilize()
			return MemoryRow{
				Dims:          shape.String(),
				N:             shape.NumNodes(),
				Faults:        f,
				Records:       sim.InfoRecords(),
				NodesWithInfo: sim.NodesWithInfo(),
				NodePct:       100 * float64(sim.NodesWithInfo()) / float64(shape.NumNodes()),
				GlobalEntries: shape.NumNodes() * f,
			}, nil
		}, nil)
}

// ---------------------------------------------------------------------------
// E17: update oscillation and locality during the converging period.

// OscillationRow reports, for one fault-arrival interval, how much status
// churn the labeling exhibits and how local it stays.
type OscillationRow struct {
	Interval     int
	Trials       int
	MeanAffected float64 // distinct nodes changed per occurrence
	MeanARounds  float64
	MaxARounds   int
}

// OscillationSweepWorkers injects clustered fault bursts at varying
// intervals and measures the labeling churn per occurrence (each (interval,
// trial) run is one parallel job). The paper's claim under test: the update
// converges quickly and only affected nodes update (reduced oscillation
// compared to routing-table flooding).
func OscillationSweepWorkers(dims []int, faults int, intervals []int, trials int, seed uint64, workers int) (_ []OscillationRow, err error) {
	defer wrapSweepErr(&err, "oscillation", dims)
	if err := needCount("trials", trials); err != nil {
		return nil, err
	}
	type evStat struct{ affected, arounds int }
	results, err := runGrid(fanOut{workers: workers}, seed, len(intervals)*trials,
		func(p *EnginePool, j int, r *rng.Source) ([]evStat, error) {
			interval := intervals[j/trials]
			sim, err := p.get(dims, 1)
			if err != nil {
				return nil, err
			}
			defer p.put(sim)
			sched, err := fault.Generate(sim.shape, faults, fault.Options{
				Interval:  interval,
				Start:     2,
				Clustered: true,
			}, r)
			if err != nil {
				return nil, err
			}
			setSchedule(sim, sched)
			sim.engine.Run(faults*interval+10*sim.shape.Diameter()+100, sim.engine.Done)
			var evs []evStat
			for _, ev := range sim.engine.Events {
				evs = append(evs, evStat{ev.Affected, ev.ARounds})
			}
			return evs, nil
		}, nil)
	if err != nil {
		return nil, err
	}

	var rows []OscillationRow
	for ii, interval := range intervals {
		var affected, arounds stats.Summary
		maxA := 0
		for _, evs := range results[ii*trials:][:trials] {
			for _, ev := range evs {
				affected.AddInt(ev.affected)
				arounds.AddInt(ev.arounds)
				maxA = max(maxA, ev.arounds)
			}
		}
		rows = append(rows, OscillationRow{
			Interval:     interval,
			Trials:       trials,
			MeanAffected: affected.Mean(),
			MeanARounds:  arounds.Mean(),
			MaxARounds:   maxA,
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

// TrafficSweepWorkers injects many messages with random endpoints into one
// dynamic-fault scenario per router and reports population metrics (each
// router's population run is one parallel job).
func TrafficSweepWorkers(dims []int, messages int, faults int, interval int, seed uint64, workers int) (_ []TrafficRow, err error) {
	defer wrapSweepErr(&err, "traffic", dims)
	if err := needCount("messages", messages); err != nil {
		return nil, err
	}
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
		s, d, err := traffic.DrawLongHaulPair(shape, r)
		if err != nil {
			return nil, err
		}
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
	return runGrid(fanOut{workers: workers}, seed, len(routers),
		func(p *EnginePool, j int, _ *rng.Source) (TrafficRow, error) {
			row := TrafficRow{Router: routers[j], Messages: messages}
			sim, err := p.get(dims, 2)
			if err != nil {
				return row, err
			}
			defer p.put(sim)
			setSchedule(sim, sched)
			rt, err := sim.router(routers[j])
			if err != nil {
				return row, err
			}
			flights := make([]*engine.Flight, len(pairs))
			for i, pr := range pairs {
				if flights[i], err = sim.engine.Inject(pr.src, pr.dst, rt); err != nil {
					return row, err
				}
			}
			sim.engine.Run(sim.flightBudget(), sim.engine.Idle)
			var c routeFold
			for _, fl := range flights {
				res := sim.result(fl)
				c.add(res)
				row.TotalBack += res.Backtracks
				row.MaxSteps = max(row.MaxSteps, res.Steps)
			}
			row.ArrivedPct = c.successPct()
			row.MeanExtra = c.extra.Mean()
			return row, nil
		}, nil)
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
	// the theorems' premise, and the E11-E13 tables report them apart.
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
	unsafeSrc      bool // Theorem 2's classification at injection time
	noPath         bool // unsafe with no enabled path: outside every premise
	premiseSkipped bool
	arrived        bool
	extra          int
	v3, v4, v5     int
	bound          int
	// tr and ivs are the measured trace and the intervals from occurrence
	// p onward that the checks read (zero for trials outside the premise).
	tr  detour.Trace
	ivs []detour.Interval
}

// TheoremSweepWorkers runs randomized conforming dynamic-fault scenarios and
// checks every measured trace against Theorems 3, 4 and 5 (each trial is
// one parallel job).
func TheoremSweepWorkers(dims []int, trials int, seed uint64, workers int) (_ TheoremReport, err error) {
	defer wrapSweepErr(&err, "theorem", dims)
	if err := needCount("trials", trials); err != nil {
		return TheoremReport{}, err
	}
	results, err := runGrid(fanOut{workers: workers}, seed, trials,
		func(p *EnginePool, _ int, rr *rng.Source) (theoremTrial, error) { return p.theoremTrial(dims, rr) }, nil)
	if err != nil {
		return TheoremReport{}, err
	}

	rep := TheoremReport{Trials: trials}
	var extra, bound stats.Summary
	for _, res := range results {
		if res.unsafeSrc {
			rep.UnsafeTrials++
		} else {
			rep.SafeTrials++
		}
		if res.premiseSkipped {
			rep.PremiseSkipped++
		}
		if res.noPath || res.premiseSkipped {
			continue
		}
		if res.arrived {
			rep.Arrived++
			extra.AddInt(res.extra)
		}
		rep.Violations3 += res.v3
		rep.Violations4 += res.v4
		rep.Violations5 += res.v5
		bound.AddInt(res.bound)
	}
	rep.MeanExtraHops = extra.Mean()
	rep.MeanDetourBound = bound.Mean()
	return rep, nil
}

// theoremTrial runs one E11-E13 trial: a conforming schedule, one long-haul
// flight injected after occurrence p, its trace checked against the theorem
// its source's classification selects.
func (p *EnginePool) theoremTrial(dims []int, rr *rng.Source) (theoremTrial, error) {
	var res theoremTrial
	sim, err := p.get(dims, 2)
	if err != nil {
		return res, err
	}
	defer p.put(sim)
	shape := sim.shape
	src, dst, err := traffic.DrawLongHaulPair(shape, rr)
	if err != nil {
		return res, err
	}
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
		return res, err
	}
	setSchedule(sim, sched)
	// Run until just after occurrence p, then inject.
	sim.RunSteps(2 + preFaults*interval - interval/2)
	res.unsafeSrc = !sim.SourceSafe(sim.CoordOf(src), sim.CoordOf(dst))
	unsafePath, hasPath := 0, true
	if res.unsafeSrc {
		if unsafePath, hasPath = safety.PathExists(sim.mesh, src, dst); !hasPath {
			res.noPath = true
			return res, nil // outside every theorem's premise
		}
	} else if !p.staticallyMinimal(dims, sched, preFaults, src, dst) {
		// Premise check: the theorems charge detours only to new
		// blocks, assuming the routing is minimal against the blocks
		// that already exist. Verify on a static replay with the
		// pre-injection faults only; skip the bounds otherwise.
		res.premiseSkipped = true
		return res, nil
	}
	fl, err := sim.engine.Inject(src, dst, route.Limited{})
	if err != nil {
		return res, err
	}
	dAt := sampleDistances(sim.engine, fl, 40*shape.Diameter()+faults*interval)

	tr, ivs, pIv := buildTrace(sim, fl, dAt, preFaults)
	res.tr, res.ivs = tr, ivs
	if fl.Msg.Arrived {
		res.arrived = true
		res.extra = tr.ExtraSteps()
	}
	d := tr.D0
	if res.unsafeSrc {
		d = unsafePath
		res.v5 = len(detour.CheckTheorem5(tr, unsafePath, ivs))
	} else {
		res.v3 = len(detour.CheckTheorem3(tr, pIv, ivs[1:]))
		res.v4 = len(detour.CheckTheorem4(tr, ivs))
	}
	res.bound = detour.MaxDetourBound(detour.KBound(d, tr.Start, ivs), ivs)
	return res, nil
}

// staticallyMinimal replays src->dst on a mesh holding only the first p
// faults (stabilized, no dynamics) and reports whether the limited router
// achieves the minimal distance — the implicit premise of Theorems 3/4.
func (pl *EnginePool) staticallyMinimal(dims []int, sched *fault.Schedule, p int, src, dst grid.NodeID) bool {
	sim, err := pl.get(dims, 1)
	if err != nil {
		return false
	}
	defer pl.put(sim)
	applied := 0
	for _, ev := range sched.Events {
		if ev.Kind != fault.Fail || applied >= p {
			break
		}
		sim.model.ApplyFault(ev.Node)
		applied++
	}
	sim.Stabilize()
	fl, err := sim.engine.Inject(src, dst, route.Limited{})
	if err != nil {
		return false
	}
	sim.engine.Run(8*sim.shape.Diameter(), sim.engine.Idle)
	return fl.Msg.Arrived && fl.Msg.Hops == sim.shape.Distance(src, dst)
}

// sampleDistances runs eng until fl terminates or maxSteps have run and
// returns D(i), fl's distance to go, at each event applied while fl is in
// flight. A Step applies the schedule's unapplied events (the log has one
// record per applied event) due by its step before any flight moves, and
// Run calls its stop rule just before every step, so the rule samples each.
func sampleDistances(eng *engine.Engine, fl *engine.Flight, maxSteps int) []int {
	var dAt []int
	shape, sched := eng.Model.M.Shape(), eng.Schedule.Events
	eng.Run(maxSteps, func() bool {
		if fl.Msg.Done() {
			return true
		}
		for i := len(eng.Events); i < len(sched) && sched[i].Step <= eng.StepCount(); i++ {
			dAt = append(dAt, shape.Distance(fl.Msg.Cur, fl.Msg.Dst))
		}
		return false
	})
	return dAt
}

// buildTrace converts an engine flight, its D(i) samples and the event log
// into the detour package's inputs: the trace, the intervals from
// occurrence p onward, and interval p itself.
func buildTrace(sim *Simulation, fl *engine.Flight, dAt []int, p int) (detour.Trace, []detour.Interval, detour.Interval) {
	shape := sim.shape
	msg := fl.Msg
	tr := detour.Trace{
		D0:      shape.Distance(msg.Src, msg.Dst),
		Start:   fl.StartStep,
		P:       p,
		DAt:     dAt,
		EndStep: fl.StartStep + msg.Steps,
		Arrived: msg.Arrived,
		Hops:    msg.Hops,
	}
	events := sim.engine.Events
	var ivs []detour.Interval
	for i := max(p-1, 0); i < len(events); i++ {
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
