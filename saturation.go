package ndmesh

// This file is the load-generation face of the simulator: it drives the
// contention-mode engine with internal/traffic's workloads — open-loop
// injection (E19), closed-loop bounded-window sources (E21, closedloop.go)
// and recorded-trace replays — through the warmup/measure/drain methodology
// and emits latency-throughput curves. SaturationSweepWorkers fans the
// (pattern, rate, router) grid out through runGrid (rungrid.go) under the
// same determinism contract as every other sweep: per-job rng streams are split
// serially in job order, each job writes only its own result slot, and
// aggregation is a serial pass — so the output is byte-identical for every
// worker count.

import (
	"fmt"
	"math"

	"ndmesh/internal/engine"
	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
	"ndmesh/internal/traffic"
)

// LoadSweepOptions is the one configuration of the load sweeps E19-E23: a
// grid of Patterns x (the entry point's load axes) x Routers, each cell a
// contention-mode load run of the Figure 7 step model under the same
// Section 5 parameters. The five entry points take it under the alias
// names SaturationOptions, CongestionShiftOptions, ClosedLoopOptions,
// GridlockOptions and ReliabilityOptions, which differ only in the row type
// Emit streams; each requires its own axes and rejects, by name, the fields
// that belong to another's (the aliases say which). Every other field means
// the same thing to all five.
type LoadSweepOptions[Row any] struct {
	// Dims is the mesh shape; Lambda the information rounds per step.
	Dims   []int
	Lambda int
	// Routers and Patterns span the sweep grid together with the entry
	// point's own axis. Pattern names: uniform | transpose | complement |
	// bitrev | hotspot | neighbor.
	Routers  []string
	Patterns []string
	// Rates is the open-loop axis, nominal injection rates in
	// messages/node/step. Windows is the closed-loop axis, the per-node
	// outstanding-request bound (with a finite NodeCapacity the closed loop
	// defers and retries a refused offer instead of dropping it).
	// FaultRates is the reliability axis, mean failures per step under
	// FaultModel; 0 is the fault-free baseline column. The axis fields a
	// sweep does not take stay out of its manifest.
	Rates      []float64 `json:",omitempty"`
	Windows    []int     `json:",omitempty"`
	FaultRates []float64 `json:",omitempty"`
	// Capacities, FaultCounts and Mechanisms are the gridlock sweep's axes
	// next to Windows, standing in for the scalars NodeCapacity, Faults and
	// Bubble: per-node input-queue depths (>= 2, so bubble admission has a
	// slot to keep free), fixed-count fault overlays (0 = fault-free) and
	// escape-mechanism arms (GridlockMechanisms).
	Capacities  []int    `json:",omitempty"`
	FaultCounts []int    `json:",omitempty"`
	Mechanisms  []string `json:",omitempty"`
	// Process is the arrival process: bernoulli (default) | poisson |
	// bursty. A closed loop has none.
	Process string `json:",omitempty"`
	// Trials is the reliability sweep's Monte-Carlo sample size per cell
	// (every trial re-draws the fault schedule AND the traffic from its own
	// stream); Rate the open-loop rate every one of its trials offers.
	Trials int     `json:",omitempty"`
	Rate   float64 `json:",omitempty"`
	// Warmup/Measure/Drain are the phase lengths in steps.
	Warmup, Measure, Drain int
	// LinkRate is the per-directed-link service rate (messages/step,
	// default 1); NodeCapacity the per-node input-queue depth (0 =
	// unbounded).
	LinkRate, NodeCapacity int
	// FlightTimeout > 0 kills any flight stalled in place that many
	// consecutive steps (engine.ContentionConfig.FlightTimeout); in
	// closed-loop runs the source retries it under exponential backoff
	// (RetryBackoff is the base delay in steps; 0 retries immediately).
	FlightTimeout, RetryBackoff int
	// Bubble enables bubble admission: injection must leave >= 1 free slot
	// in the source's input buffer. Requires NodeCapacity >= 2 (with
	// unbounded buffers it is a no-op).
	Bubble bool
	// GridlockWindow > 0 enables the engine's zero-progress gridlock
	// detector with that window; an escape-less run that gridlocks is cut
	// short (and reported Gridlocked) instead of spinning to its budget.
	GridlockWindow int
	// Faults > 0 overlays a fixed-count fault schedule (FaultInterval steps
	// apart, clustered into one block when Clustered) on every run. When
	// FaultInterval is 0 the interval defaults to Total/(Faults+1), so the
	// schedule spans warmup, measure AND drain. (Earlier versions hard-coded
	// the first fault to step 2, which front-loaded every fault before the
	// warmup ended — the measure phase never saw a fault arrive.)
	Faults, FaultInterval int
	Clustered             bool
	// FaultStart pins the step of the first fault (>= 1); 0 defaults to one
	// interval in, so the schedule is spread across the run.
	FaultStart int
	// FaultRate > 0 replaces the fixed-count overlay with a stochastic
	// fault process (fault.GenerateProcess): failures arrive throughout the
	// whole run with mean rate FaultRate per step under FaultModel
	// (bernoulli | weibull; FaultShape is the weibull shape, default 1.5).
	// FaultRepair > 0 repairs every failed node a random delay later (mean
	// FaultRepair steps, geometric). The process draws from a dedicated rng
	// stream split off the cell's, so the offered traffic is byte-identical
	// across fault rates/models/repair settings. Mutually exclusive with
	// Faults.
	FaultRate   float64
	FaultModel  string
	FaultShape  float64
	FaultRepair float64
	// Shards is ignored; kept only because bench/batch.go assigns it.
	Shards int
	// Probe, when non-nil, receives the per-step census of the run (see
	// internal/probe). Because probes are stateful accumulators, a probed
	// sweep must be a single cell (one pattern, one rate, one router) —
	// otherwise the parallel cells would interleave their censuses.
	// Observation is read-only: the rows are byte-identical with or
	// without a probe attached. ProbeEvery > 1 decimates the flush
	// cadence: counters aggregate the interval, gauges and the heatmap
	// views sample its last step.
	// Probe and the hooks below carry json:"-": a manifest embeds the
	// options value a run took minus those (encoding/json refuses a
	// func-typed field even when nil).
	Probe      engine.Probe `json:"-"`
	ProbeEvery int
	// Progress, when non-nil, is called after every completed cell (every
	// trial, in a reliability sweep) with (done, total) — the sweep CLIs
	// wire it to a stderr printer. Called from worker goroutines; must be
	// safe for concurrent use.
	Progress func(done, total int) `json:"-"`
	// Pool, when non-nil, is a shared reservoir of warm simulations the
	// sweep's workers draw from and return to when the sweep ends (the
	// meshd daemon's engine-pool lifecycle — see pool.go). Nil keeps the
	// classic behavior: worker-local simulations built per sweep. Pooling
	// is invisible in the rows: a reused simulation is Reset first, so
	// results are byte-identical with or without a pool.
	Pool *EnginePool `json:"-"`
	// Emit, when non-nil, is called once per completed cell with (index,
	// row) — the streaming hook meshd serves NDJSON rows from. Calls
	// arrive from worker goroutines in completion order (NOT index
	// order), carrying exactly the row the returned slice holds at that
	// index; a caller re-sequencing by index therefore reproduces the
	// batch output byte-for-byte. A reliability row is emitted when the
	// last of its cell's trials lands. Must be safe for concurrent use.
	Emit func(index int, row Row) `json:"-"`
	// Cancel, when non-nil, is polled before every cell and every
	// cancelCheckInterval steps inside one; returning true aborts the
	// sweep with ErrCanceled. The abort path runs the same engine cleanup
	// as a completed cell, so pooled simulations come back clean.
	Cancel func() bool `json:"-"`
}

// SaturationOptions configures the E19 grid, Patterns x Rates x Routers, one
// open-loop load run per cell: it takes Rates and Process and rejects
// Windows, FaultRates, Trials, Rate and the gridlock axes (Capacities,
// FaultCounts, Mechanisms).
type SaturationOptions = LoadSweepOptions[SaturationRow]

// DefaultSaturation returns the standard configuration: an 8x8 mesh,
// Bernoulli arrivals, uniform + transpose patterns, the limited router,
// rates from deep underload to past saturation.
func DefaultSaturation() SaturationOptions {
	return SaturationOptions{
		Dims:     []int{8, 8},
		Lambda:   1,
		Routers:  []string{"limited"},
		Patterns: []string{"uniform", "transpose"},
		Rates:    []float64{0.02, 0.05, 0.1, 0.2, 0.35, 0.5},
		Process:  "bernoulli",
		Warmup:   64,
		Measure:  256,
		Drain:    256,
		LinkRate: 1,
	}
}

// SaturationRow is one latency-throughput point: a (pattern, rate, router)
// cell's measurement-window statistics.
type SaturationRow struct {
	Dims    string
	Pattern string
	Router  string
	// OfferedRate is the nominal injection rate (messages/node/step);
	// AcceptedRate what was actually delivered per node-step.
	OfferedRate, AcceptedRate float64
	// Offered = Injected + Dropped (source-queue refusals); Delivered /
	// Unreachable / Lost / Unfinished classify the injected flights.
	Offered, Injected, Dropped               int
	Delivered, Unreachable, Lost, Unfinished int
	// LatMean/P50/P95/P99/Max summarize delivered-flight latency in steps
	// (queueing waits included).
	LatMean                float64
	LatP50, LatP95, LatP99 int
	LatMax                 int
}

// SaturationSweepWorkers runs the latency-throughput grid (each (pattern,
// rate, router) cell is one parallel job; workers < 1 means GOMAXPROCS, and
// the rows are identical for every value).
func SaturationSweepWorkers(opt SaturationOptions, seed uint64, workers int) ([]SaturationRow, error) {
	// One job per (pattern, rate, router) cell, pattern-major — the order
	// the rows are reported in and the order the job streams are split in.
	jobs, shape, err := opt.sweepGrid("saturation", "rate", len(opt.Rates),
		"Windows", "FaultRates", "Trials", "Rate", "Capacities", "FaultCounts", "Mechanisms")
	if err != nil {
		return nil, err
	}
	if err := opt.validateRates(opt.Rates...); err != nil {
		return nil, err
	}
	if err := opt.validateLoadShape(); err != nil {
		return nil, err
	}
	return runGrid(fanOut{workers: workers, pool: opt.Pool, cancel: opt.Cancel, progress: opt.Progress}, seed, jobs,
		func(p *simPool, j int, r *rng.Source) (SaturationRow, error) {
			pi := j / (len(opt.Rates) * len(opt.Routers))
			ri := j / len(opt.Routers) % len(opt.Rates)
			ki := j % len(opt.Routers)
			pt, err := opt.loadPoint(p, workload{pattern: opt.Patterns[pi], rate: opt.Rates[ri]}, opt.Routers[ki], r)
			if err != nil {
				return SaturationRow{}, err
			}
			return SaturationRow{
				Dims:         shape.String(),
				Pattern:      opt.Patterns[pi],
				Router:       opt.Routers[ki],
				OfferedRate:  pt.OfferedRate,
				AcceptedRate: pt.AcceptedRate,
				Offered:      pt.Offered,
				Injected:     pt.Injected,
				Dropped:      pt.Dropped,
				Delivered:    pt.Delivered,
				Unreachable:  pt.Unreachable,
				Lost:         pt.Lost,
				Unfinished:   pt.Unfinished,
				LatMean:      pt.Latency.Mean,
				LatP50:       pt.Latency.P50,
				LatP95:       pt.Latency.P95,
				LatP99:       pt.Latency.P99,
				LatMax:       pt.Latency.Max,
			}, nil
		}, emitEach(opt.Emit))
}

// emitEach adapts a sweep's per-row Emit hook to runGrid's done hook.
func emitEach[R any](emit func(index int, row R)) func(out []R, j int) {
	if emit == nil {
		return nil
	}
	return func(out []R, j int) { emit(j, out[j]) }
}

// sweepGrid is the preamble of the five entry points: it applies the
// caller's axis rules and returns its grid size and mesh shape. The entry
// point's own axes, n cells per (pattern, router), must be set; the first
// field foreign to it that is set is an error naming it; a probe limits the
// grid to one cell.
func (opt *LoadSweepOptions[Row]) sweepGrid(entry, axis string, n int, foreign ...string) (int, *grid.Shape, error) {
	if len(opt.Routers) == 0 || len(opt.Patterns) == 0 || n == 0 {
		return 0, nil, fmt.Errorf("ndmesh: %s sweep needs at least one router, pattern and %s", entry, axis)
	}
	set := map[string]bool{
		"Rates": len(opt.Rates) > 0, "Windows": len(opt.Windows) > 0, "FaultRates": len(opt.FaultRates) > 0,
		"Capacities": len(opt.Capacities) > 0, "FaultCounts": len(opt.FaultCounts) > 0, "Mechanisms": len(opt.Mechanisms) > 0,
		"Trials": opt.Trials != 0, "Rate": opt.Rate != 0, "Process": opt.Process != "",
		"NodeCapacity": opt.NodeCapacity != 0, "Bubble": opt.Bubble,
		"Faults": opt.Faults != 0, "FaultRate": opt.FaultRate != 0,
		"FaultInterval": opt.FaultInterval != 0, "FaultStart": opt.FaultStart != 0,
		"Probe": opt.Probe != nil,
	}
	for _, f := range foreign {
		if set[f] {
			return 0, nil, fmt.Errorf("ndmesh: a %s sweep does not take %s", entry, f)
		}
	}
	cells := len(opt.Patterns) * n * len(opt.Routers)
	if opt.Probe != nil && cells > 1 {
		return 0, nil, fmt.Errorf("ndmesh: a probed sweep must be a single cell (got %d); probes are stateful accumulators and parallel cells would interleave their censuses", cells)
	}
	shape, err := grid.NewShape(opt.Dims...)
	return cells, shape, err
}

// validateRates rejects rates the arrival process cannot offer faithfully:
// past its MaxRate the realized load silently clips and the curve's
// offered-rate axis would lie (a Bernoulli source caps at 1 msg/node/step, a
// bursty one at its duty cycle).
func (opt *LoadSweepOptions[Row]) validateRates(rates ...float64) error {
	proc, err := traffic.ProcessByName(opt.Process)
	if err != nil {
		return err
	}
	for _, rate := range rates {
		if !finite(rate) || rate <= 0 {
			return fmt.Errorf("ndmesh: injection rate %v must be positive and finite", rate)
		}
		if max := proc.MaxRate(); rate > max {
			return fmt.Errorf("ndmesh: rate %v exceeds what the %s process can offer (max %v msgs/node/step); use a lower rate or the poisson process",
				rate, proc.Name(), max)
		}
	}
	return nil
}

// validateLoadShape checks (and defaults) the workload-independent run
// configuration shared by the open-loop sweeps, the closed-loop sweep and
// trace replays: the phase lengths and the contention parameters.
func (opt *LoadSweepOptions[Row]) validateLoadShape() error {
	if opt.Measure < 1 {
		return fmt.Errorf("ndmesh: load run needs a measurement window (Measure >= 1)")
	}
	if opt.Warmup < 0 || opt.Drain < 0 {
		return fmt.Errorf("ndmesh: negative phase lengths (warmup %d, drain %d)", opt.Warmup, opt.Drain)
	}
	if opt.Lambda < 1 {
		opt.Lambda = 1
	}
	if opt.LinkRate < 1 {
		opt.LinkRate = 1
	}
	if opt.FlightTimeout < 0 {
		opt.FlightTimeout = 0
	}
	if opt.RetryBackoff < 0 {
		opt.RetryBackoff = 0
	}
	if opt.GridlockWindow < 0 {
		opt.GridlockWindow = 0
	}
	if opt.ProbeEvery < 1 {
		opt.ProbeEvery = 1
	}
	if opt.Bubble && opt.NodeCapacity == 1 {
		return fmt.Errorf("ndmesh: bubble admission with capacity 1 can never admit a flight (NodeCapacity must be >= 2)")
	}
	if opt.FaultStart < 0 {
		return fmt.Errorf("ndmesh: FaultStart %d must be >= 0", opt.FaultStart)
	}
	if !finite(opt.FaultRate) || !finite(opt.FaultShape) || !finite(opt.FaultRepair) {
		return fmt.Errorf("ndmesh: fault process parameters must be finite (rate %v, shape %v, repair %v)",
			opt.FaultRate, opt.FaultShape, opt.FaultRepair)
	}
	if opt.FaultRate < 0 || opt.FaultRate > 1 {
		return fmt.Errorf("ndmesh: fault rate %v out of range [0, 1]", opt.FaultRate)
	}
	if opt.FaultRate > 0 {
		if opt.Faults > 0 {
			return fmt.Errorf("ndmesh: FaultRate and Faults are mutually exclusive overlays — pick the stochastic process or the fixed count")
		}
		if opt.FaultModel == "" {
			opt.FaultModel = fault.DelayBernoulli
		}
		if opt.FaultModel != fault.DelayBernoulli && opt.FaultModel != fault.DelayWeibull {
			return fmt.Errorf("ndmesh: unknown fault model %q (want %s|%s)", opt.FaultModel, fault.DelayBernoulli, fault.DelayWeibull)
		}
		if opt.FaultModel == fault.DelayWeibull && opt.FaultShape == 0 {
			opt.FaultShape = 1.5
		}
		if opt.FaultRepair < 0 {
			return fmt.Errorf("ndmesh: FaultRepair %v must be >= 0", opt.FaultRepair)
		}
		if opt.FaultRepair > 0 && opt.FaultRepair < 1 {
			return fmt.Errorf("ndmesh: FaultRepair %v is a mean delay in steps (>= 1)", opt.FaultRepair)
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// workload selects what one load run offers the network: a live open-loop
// generator (pattern + rate), a live closed-loop source (pattern + window),
// or the replay of a recorded trace. record, when non-nil, captures the
// run's offered stream and fault schedule into the trace so the identical
// workload can be replayed later (see traffic.Trace).
type workload struct {
	// pattern names the traffic pattern for the live modes (unused when
	// replaying — the trace already holds concrete endpoints).
	pattern string
	// rate is the open-loop nominal injection rate (0 in closed-loop mode).
	rate float64
	// window > 0 selects the closed loop: every node keeps up to window
	// requests outstanding and reinjects only when one terminates.
	window int
	// replay, when non-nil, replays the recorded workload: its injections,
	// fault schedule, phases and rate. No randomness is consumed.
	replay *traffic.Trace
	// record, when non-nil, is filled with the run's offers and metadata.
	record *traffic.Trace
}

// closedLoop reports whether the run uses closed-loop drop accounting: a
// refused offer is deferred and retried, never counted as a drop. Replays
// mirror the accounting of the run they recorded.
func (wl *workload) closedLoop() bool {
	return wl.window > 0 || (wl.replay != nil && wl.replay.ClosedLoop)
}

// loadPoint executes one contention-mode load run on a pooled simulation:
// workload injection (open-loop, closed-loop or trace replay) for
// warmup+measure steps, then a drain window, with terminated flights
// harvested (and recycled) every step.
func (opt *LoadSweepOptions[Row]) loadPoint(p *simPool, wl workload, router string, r *rng.Source) (traffic.LoadPoint, error) {
	sim, err := p.get(opt.Dims, opt.Lambda)
	if err != nil {
		return traffic.LoadPoint{}, err
	}
	shape := sim.shape
	// recFaults is the fault schedule a recording must carry. It is only
	// copied into wl.record after the recorder attaches, because attaching
	// resets the trace (including any stale fault schedule).
	var recFaults []fault.Event
	switch {
	case wl.replay != nil:
		// The trace carries the origin run's fault schedule; a live fault
		// overlay would double-fault the replay.
		if err := wl.replay.Validate(shape); err != nil {
			return traffic.LoadPoint{}, err
		}
		if len(wl.replay.Faults) > 0 {
			setSchedule(sim, wl.replay.Schedule())
		}
		// Re-recording a replay must carry the schedule over, or the copy
		// would replay fault-free and break the byte-identity contract.
		recFaults = wl.replay.Faults
	case opt.FaultRate > 0 || opt.Faults > 0:
		// The overlay draws from a stream split off the cell's, so the
		// traffic draws below are byte-identical across fault settings (and
		// the schedule is identical across patterns/rates at a fixed seed).
		// Fault-free cells skip the split, keeping their goldens unchanged.
		fr := r.Split()
		total := opt.Warmup + opt.Measure + opt.Drain
		var sched *fault.Schedule
		var err error
		if opt.FaultRate > 0 {
			popt := fault.ProcessOptions{
				Arrival:   fault.Delay{Model: opt.FaultModel, Rate: opt.FaultRate, Shape: opt.FaultShape},
				Start:     opt.FaultStart,
				Horizon:   total - 1,
				Clustered: opt.Clustered,
			}
			if opt.FaultRepair > 0 {
				popt.Repair = fault.Delay{Model: fault.DelayBernoulli, Rate: 1 / opt.FaultRepair}
			}
			sched, err = fault.GenerateProcess(shape, popt, fr)
		} else {
			// Fixed count: default the interval so the schedule spans the
			// whole run (not, as the old hard-coded Start: 2 did, completing
			// before the warmup ends), and start one interval in.
			interval := opt.FaultInterval
			if interval < 1 {
				interval = total / (opt.Faults + 1)
				if interval < 1 {
					interval = 1
				}
			}
			start := opt.FaultStart
			if start < 1 {
				start = interval
			}
			sched, err = fault.Generate(shape, opt.Faults, fault.Options{
				Interval:  interval,
				Start:     start,
				Clustered: opt.Clustered,
			}, fr)
		}
		if err != nil {
			return traffic.LoadPoint{}, err
		}
		setSchedule(sim, sched)
		recFaults = sched.Events
	}
	rtr, err := route.ByName(router)
	if err != nil {
		return traffic.LoadPoint{}, err
	}

	// Build the injection source for the selected workload mode. cl is
	// non-nil only for a live closed loop: its outstanding windows are
	// released from the harvest callback below. rq is non-nil only for a
	// live open loop with flight timeouts: it re-offers timed-out requests
	// under the same backoff discipline (without it, open-loop escape runs
	// silently under-delivered their offered load; ARCHITECTURE.md "Deadlock
	// escape & graceful degradation").
	var src traffic.Injector
	var cl *traffic.ClosedLoop
	var rq *traffic.RetrySource
	rate := wl.rate
	switch {
	case wl.replay != nil:
		// No retry machinery on replay: the recorded stream already carries
		// the origin run's retried offers.
		src = traffic.NewTracePlayer(wl.replay)
		rate = wl.replay.Rate
	case wl.window > 0:
		pat, err := traffic.ByName(shape, wl.pattern)
		if err != nil {
			return traffic.LoadPoint{}, err
		}
		cl = traffic.NewClosedLoop(shape, pat, wl.window, r)
		src = cl
	default:
		pat, err := traffic.ByName(shape, wl.pattern)
		if err != nil {
			return traffic.LoadPoint{}, err
		}
		proc, err := traffic.ProcessByName(opt.Process)
		if err != nil {
			return traffic.LoadPoint{}, err
		}
		src = traffic.NewGenerator(shape, pat, proc, wl.rate, r)
		if opt.FlightTimeout > 0 {
			rq = traffic.NewRetrySource(src, shape.NumNodes(), opt.RetryBackoff, r)
			src = rq
		}
	}
	if wl.record != nil {
		wl.record.Dims = shape.Radices()
		wl.record.Rate = rate
		wl.record.Window = wl.window
		wl.record.ClosedLoop = wl.closedLoop()
		wl.record.Warmup, wl.record.Measure, wl.record.Drain = opt.Warmup, opt.Measure, opt.Drain
		// The engine-side configuration shapes every admission verdict, so
		// the trace carries it: a replay inherits these unless the caller
		// overrides deliberately.
		wl.record.Lambda, wl.record.LinkRate, wl.record.NodeCapacity = opt.Lambda, opt.LinkRate, opt.NodeCapacity
		wl.record.FlightTimeout, wl.record.GridlockWindow, wl.record.Bubble = opt.FlightTimeout, opt.GridlockWindow, opt.Bubble
		src = traffic.NewTraceRecorder(src, wl.record) // resets the trace...
		wl.record.Faults = append(wl.record.Faults, recFaults...)
		// ... so the fault schedule is attached afterwards.
	}
	closed := wl.closedLoop()

	eng := sim.engine
	eng.EnableContention(engine.ContentionConfig{
		LinkRate:       opt.LinkRate,
		NodeCapacity:   opt.NodeCapacity,
		GridlockWindow: opt.GridlockWindow,
		FlightTimeout:  opt.FlightTimeout,
		Bubble:         opt.Bubble,
	})
	if cl != nil && opt.FlightTimeout > 0 {
		cl.ConfigureRetry(opt.RetryBackoff)
	}
	// Attach the census probe (and pick out its latency sink, if it has
	// one) before the first injection so the census covers the whole run.
	// Observation is read-only, so the LoadPoint below is byte-identical
	// with or without it.
	var latObs interface{ ObserveLatency(steps int) }
	if opt.Probe != nil {
		eng.SetProbe(opt.Probe)
		latObs, _ = opt.Probe.(interface{ ObserveLatency(steps int) })
	}
	// Every exit path must hand the pooled engine back clean: past-saturation
	// cells end the drain with backlog flights still attached and counted in
	// the residency census, and a persistent reuse of the engine would
	// inherit that corrupt state. ClearFlights detaches and recycles the
	// backlog while contention is still enabled, so resetContention releases
	// every residency counter; then contention turns off
	// (TestLoadPointLeavesEngineClean).
	defer func() {
		eng.SetProbe(nil)
		eng.ClearFlights()
		eng.DisableContention()
	}()
	ph := traffic.Phases{Warmup: opt.Warmup, Measure: opt.Measure, Drain: opt.Drain}
	col := &sim.col
	col.Reset(ph)

	fab := sim.mesh
	var injectErr error
	step := 0
	emit := func(src, dst grid.NodeID) bool {
		if injectErr != nil {
			return false
		}
		// Source-queue admission: a faulty/disabled source cannot inject,
		// and a full input queue refuses the message. An open loop counts
		// the refusal as a drop; a closed loop (and the replay of one)
		// leaves it unaccounted — the source keeps the slot and retries.
		if fab.Status(src) != mesh.Enabled || !eng.Admit(src) {
			if !closed {
				col.Offer(step, false)
			}
			return false
		}
		if _, err := eng.Inject(src, dst, rtr); err != nil {
			injectErr = err
			return false
		}
		col.Offer(step, true)
		return true
	}
	harvest := func(fl *engine.Flight) {
		oc := traffic.Unfinished
		switch {
		case fl.Msg.Arrived:
			oc = traffic.Delivered
		case fl.Msg.Unreachable:
			oc = traffic.Unreachable
		case fl.Msg.Lost:
			oc = traffic.Lost
		case fl.Msg.TimedOut:
			oc = traffic.TimedOut
		}
		if cl != nil {
			if oc == traffic.TimedOut {
				// A timeout kill re-arms the slot for a retry under backoff
				// instead of plainly releasing it.
				cl.Timeout(fl.Msg.Src)
				col.Retry(fl.StartStep)
				eng.NoteRetried()
			} else {
				// Every other terminal outcome frees the source's window
				// slot — delivered or not — or faults would wedge the loop
				// shut.
				cl.Release(fl.Msg.Src)
			}
		} else if rq != nil {
			if oc == traffic.TimedOut {
				// The open loop re-offers the killed request (same src, same
				// dst — there is no window slot to redraw from) after its
				// backoff; the retried offer is emitted through src.Step, so
				// a recording trace captures it like any other.
				rq.Timeout(fl.Msg.Src, fl.Msg.Dst, ph.Measured(fl.StartStep))
				col.Retry(fl.StartStep)
				eng.NoteRetried()
			} else {
				rq.Settle(fl.Msg.Src)
			}
		}
		col.Finish(fl.StartStep, fl.Msg.Steps, oc)
		if latObs != nil && oc == traffic.Delivered && ph.Measured(fl.StartStep) {
			// Feed the full-distribution histogram the same latencies the
			// summary's exact-sample path sees (measured delivered flights).
			latObs.ObserveLatency(fl.Msg.Steps)
		}
	}

	total := ph.Total()
	for ; step < total; step++ {
		// Poll the caller's cancellation hook on a coarse cadence: the
		// deferred cleanup above runs on this exit path too, so an aborted
		// cell hands its engine back exactly as clean as a finished one.
		if opt.Cancel != nil && step%cancelCheckInterval == 0 && opt.Cancel() {
			return traffic.LoadPoint{}, ErrCanceled
		}
		if step < ph.InjectUntil() {
			src.Step(emit)
			if injectErr != nil {
				return traffic.LoadPoint{}, injectErr
			}
		}
		eng.Step()
		eng.DetachDone(harvest)
		if opt.Probe != nil && (step+1)%opt.ProbeEvery == 0 {
			// Flush after the harvest pass so retries land in the same
			// census as the timeouts that caused them.
			eng.FlushCensus()
		}
		if eng.Gridlocked() && opt.FlightTimeout == 0 {
			// Terminal gridlock: without flight timeouts nothing can break
			// the buffer cycle, so the remaining steps would spin without a
			// single commit. Cut the run short; the backlog is counted
			// unfinished below and the point is reported Gridlocked. With
			// timeouts enabled the detector latches only transiently (the
			// next kill is progress), so the run keeps stepping.
			break
		}
	}
	// Flush whatever partial census the decimation cadence (or a gridlock
	// cut) left behind; a no-op when the last step flushed already.
	if opt.Probe != nil {
		eng.FlushCensus()
	}
	// Whatever survived the drain is unfinished backlog (the deferred
	// cleanup detaches it afterwards).
	for _, fl := range eng.Flights() {
		if !fl.Msg.Done() {
			col.Finish(fl.StartStep, fl.Msg.Steps, traffic.Unfinished)
		}
	}
	pt := col.Result(rate, shape.NumNodes())
	// Read the detector before the deferred cleanup resets it.
	pt.Gridlocked = eng.Gridlocked()
	pt.GridlockStep = eng.GridlockStep()
	pt.RecoverySteps = eng.GridlockRecovery()
	if rq != nil {
		pt.RetryDropped = rq.PendingMeasured()
	}
	// Count the fault/recovery events the run actually applied (whole-run
	// totals; a replay reproduces the origin's schedule and so these too).
	for _, rec := range eng.Events {
		switch rec.Kind {
		case fault.Fail:
			pt.Failed++
		case fault.Recover:
			pt.Recovered++
		}
	}
	return pt, nil
}

// LoadOptions configures a single one-shot load run.
type LoadOptions struct {
	Dims                   []int
	Lambda                 int
	Router                 string
	Pattern                string
	Process                string
	Rate                   float64
	Warmup, Measure, Drain int
	LinkRate, NodeCapacity int
	// FlightTimeout/RetryBackoff/Bubble/GridlockWindow configure the
	// deadlock-escape mechanisms; see the SaturationOptions fields of the
	// same names. On replay, FlightTimeout and GridlockWindow are inherited
	// from the trace wherever left zero, and Bubble is inherited when the
	// trace recorded it (there is no force-off override for a recorded
	// bubble run — re-record instead).
	FlightTimeout, RetryBackoff int
	Bubble                      bool
	GridlockWindow              int
	Faults, FaultInterval       int
	Clustered                   bool
	// FaultStart/FaultRate/FaultModel/FaultShape/FaultRepair configure the
	// fault overlay; see the SaturationOptions fields of the same names.
	FaultStart  int
	FaultRate   float64
	FaultModel  string
	FaultShape  float64
	FaultRepair float64
	// Shards is ignored; kept only because bench/batch.go assigns it.
	Shards int
	// Probe, when non-nil, receives the run's per-step census (see
	// internal/probe and the SaturationOptions field of the same name);
	// ProbeEvery > 1 decimates the flush cadence. Read-only: the
	// LoadPoint is byte-identical with or without a probe.
	Probe      engine.Probe `json:"-"`
	ProbeEvery int
	Seed       uint64
	// Window > 0 switches the run to the closed-loop workload: every node
	// keeps up to Window requests outstanding and reinjects only when one
	// terminates. Rate and Process are ignored in closed-loop mode.
	Window int
	// Record, when non-nil, is filled with the run's offered workload,
	// fault schedule and metadata — a trace that Replay (or -trace-replay
	// on cmd/loadgen) reproduces byte-identically.
	Record *traffic.Trace `json:"-"`
	// Replay, when non-nil, replays a recorded workload instead of running
	// a live source: Dims, Rate, Window, the phase lengths and the fault
	// schedule are taken from the trace and override the corresponding
	// fields here; no randomness is consumed. The engine-side
	// configuration (Lambda, LinkRate, NodeCapacity) is inherited from
	// the trace wherever the caller leaves the field zero, so a plain
	// replay is byte-identical to the origin run's LoadPoint; set a field
	// (or Router, which is never recorded) to deliberately
	// run the same offered workload under a different configuration.
	// Because 0 is NodeCapacity's meaningful "unbounded" value, forcing
	// unbounded buffers on the replay of a finite-capacity trace takes a
	// negative NodeCapacity.
	Replay *traffic.Trace `json:"-"`
	// Pool, when non-nil, serves the run from a shared reservoir of warm
	// simulations and returns the engine afterwards (see
	// SaturationOptions.Pool); Cancel aborts the run with ErrCanceled
	// when it returns true (polled every cancelCheckInterval steps);
	// Progress is called with (done, total) after every completed run (one
	// per router arm of a replay comparison).
	Pool     *EnginePool           `json:"-"`
	Cancel   func() bool           `json:"-"`
	Progress func(done, total int) `json:"-"`
}

// applyReplay resolves the trace-inheritance rules into opt: the trace is
// authoritative for the workload side (dims, rate/window, phase lengths,
// fault schedule), and the engine-side configuration is inherited for every
// field the caller left zero, so a plain replay reproduces the origin run
// byte-identically. opt.Replay must be non-nil.
func (opt *LoadOptions) applyReplay() {
	tr := opt.Replay
	opt.Dims = append([]int(nil), tr.Dims...)
	opt.Rate = tr.Rate
	opt.Window = tr.Window
	opt.Warmup, opt.Measure, opt.Drain = tr.Warmup, tr.Measure, tr.Drain
	// The trace is the fault authority: a live overlay (either kind) on top
	// of it would double-fault the replay.
	opt.Faults = 0
	opt.FaultRate = 0
	if opt.Lambda == 0 {
		opt.Lambda = tr.Lambda
	}
	if opt.LinkRate == 0 {
		opt.LinkRate = tr.LinkRate
	}
	switch {
	case opt.NodeCapacity == 0:
		opt.NodeCapacity = tr.NodeCapacity
	case opt.NodeCapacity < 0:
		opt.NodeCapacity = 0 // explicit unbounded override
	}
	if opt.FlightTimeout == 0 {
		opt.FlightTimeout = tr.FlightTimeout
	}
	if opt.GridlockWindow == 0 {
		opt.GridlockWindow = tr.GridlockWindow
	}
	if tr.Bubble {
		opt.Bubble = true
	}
}

// cell resolves a one-shot run into what loadPoint takes: the engine-side
// configuration (with the trace inheritance applied when opt.Replay is set)
// and the workload. It is the one place LoadOptions becomes the sweeps'
// LoadSweepOptions — the only field-by-field copy between option structs —
// shared by LoadRun and ReplayCompareSweepWorkers, so a replay behaves the
// same whichever entry point runs it.
func (opt LoadOptions) cell() (SaturationOptions, workload) {
	if opt.Replay != nil {
		opt.applyReplay()
	}
	sopt := SaturationOptions{
		Dims: opt.Dims, Lambda: opt.Lambda,
		Routers: []string{opt.Router}, Patterns: []string{opt.Pattern},
		Rates: []float64{opt.Rate}, Process: opt.Process,
		Warmup: opt.Warmup, Measure: opt.Measure, Drain: opt.Drain,
		LinkRate: opt.LinkRate, NodeCapacity: opt.NodeCapacity,
		FlightTimeout: opt.FlightTimeout, RetryBackoff: opt.RetryBackoff,
		Bubble: opt.Bubble, GridlockWindow: opt.GridlockWindow,
		Faults: opt.Faults, FaultInterval: opt.FaultInterval,
		Clustered: opt.Clustered, FaultStart: opt.FaultStart,
		FaultRate: opt.FaultRate, FaultModel: opt.FaultModel,
		FaultShape: opt.FaultShape, FaultRepair: opt.FaultRepair,
		Probe: opt.Probe, ProbeEvery: opt.ProbeEvery,
		Cancel: opt.Cancel,
	}
	wl := workload{pattern: opt.Pattern, rate: opt.Rate, window: opt.Window,
		replay: opt.Replay, record: opt.Record}
	if wl.window > 0 {
		wl.rate = 0
	}
	return sopt, wl
}

// LoadRun executes one contention-mode load run and returns its
// latency-throughput point — the single-cell convenience entry for
// library callers who want one point, not a sweep (cmd/loadgen goes
// through SaturationSweepWorkers for open-loop grids; the two paths
// produce identical points, pinned by TestLoadRunMatchesSweepCell: a
// 1-job grid splits the seed exactly as a sweep splits its first cell).
func LoadRun(opt LoadOptions) (traffic.LoadPoint, error) {
	if opt.Replay != nil && opt.Record == opt.Replay {
		// Aliasing the two would have the recorder truncate the very
		// offer stream the player is reading — refuse instead of
		// silently replaying (and re-recording) an empty workload.
		return traffic.LoadPoint{}, fmt.Errorf("ndmesh: Record and Replay must be distinct traces")
	}
	if opt.Router == "" {
		return traffic.LoadPoint{}, fmt.Errorf("ndmesh: load run needs a router")
	}
	sopt, wl := opt.cell()
	// Closed-loop and replay runs have no live arrival process to validate
	// a rate against (a closed loop has no nominal rate at all).
	if wl.window == 0 && wl.replay == nil {
		if err := sopt.validateRates(opt.Rate); err != nil {
			return traffic.LoadPoint{}, err
		}
	}
	if err := sopt.validateLoadShape(); err != nil {
		return traffic.LoadPoint{}, err
	}
	pts, err := runGrid(fanOut{workers: 1, pool: opt.Pool, cancel: opt.Cancel, progress: opt.Progress}, opt.Seed, 1,
		func(p *simPool, _ int, r *rng.Source) (traffic.LoadPoint, error) {
			return sopt.loadPoint(p, wl, opt.Router, r)
		}, nil)
	if err != nil {
		return traffic.LoadPoint{}, err
	}
	return pts[0], nil
}
