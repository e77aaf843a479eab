package ndmesh

// This file is the load-generation face of the simulator: it drives the
// engine under contention with internal/traffic's workloads — open-loop
// injection (E19), closed-loop bounded-window sources (E21, closedloop.go)
// and recorded-trace replays — through the warmup/measure/drain methodology
// and emits latency-throughput curves. SaturationSweepWorkers fans the
// (pattern, rate, router) grid out through runGrid (rungrid.go) under the
// same determinism contract as every other sweep: per-job rng streams are split
// serially in job order, each job writes only its own result slot, and
// aggregation is a serial pass — so the output is byte-identical for every
// worker count.

import (
	"cmp"
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

// LoadSweepOptions is the one configuration of the load sweeps E19-E23 and
// the replay comparison: a grid of Patterns x (the entry point's load axes)
// x Routers, or a recorded trace x Routers, each cell a load run of the
// Figure 7 step model under contention and the same Section 5 parameters.
// The six entry points take it under the alias names SaturationOptions,
// CongestionShiftOptions, ClosedLoopOptions, GridlockOptions,
// ReliabilityOptions and ReplayCompareOptions, which differ only in the row
// type Emit streams; each requires its own axes and rejects, by name, the
// fields that belong to another's (the aliases say which), in the pre-run
// check Check exports. Every other field means the same thing to all six.
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
	// slot to keep free), fixed-count fault overlays (0 = fault-free; none
	// may exceed the mesh's interior nodes, as Faults may not) and
	// escape-mechanism arms (GridlockMechanisms).
	Capacities  []int    `json:",omitempty"`
	FaultCounts []int    `json:",omitempty"`
	Mechanisms  []string `json:",omitempty"`
	// Replay is the replay comparison's workload: the recorded trace every
	// router arm replays, which owns the mesh, the phases, the offered
	// stream and the fault schedule (see LoadOptions.Replay). The five grid
	// sweeps refuse it.
	Replay *traffic.Trace `json:"-"`
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
	// warmup ended — the measure phase never saw a fault arrive.) No fault
	// lies on the outermost surface, so the check refuses a Faults above
	// the mesh's interior node count, the product of (k-2) over its radices.
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
	// wire it to a stderr printer. Called from worker goroutines, one call
	// at a time.
	Progress func(done, total int) `json:"-"`
	// Pool, when non-nil, is the reservoir of warm simulations each cell
	// checks its simulation out of and puts it back to once the cell is
	// done (the meshd daemon shares one across its jobs — see pool.go).
	// Nil runs the sweep on a private pool built for it. Pooling is
	// invisible in the rows: a reused simulation is Reset first, so results
	// are byte-identical with or without a pool.
	Pool *EnginePool `json:"-"`
	// Emit, when non-nil, is called once per completed cell with (index,
	// row) — the streaming hook meshd serves NDJSON rows from. Calls come
	// in index order, one at a time, carrying exactly the row the returned
	// slice holds at that index, so the rows streamed are the batch output
	// byte-for-byte; a failed or canceled sweep emits the prefix before
	// its lowest failing cell. A reliability row is emitted once all of
	// its cell's trials have landed.
	Emit func(index int, row Row) `json:"-"`
	// Cancel, when non-nil, is polled before every cell and every
	// cancelCheckInterval steps inside one; returning true aborts the
	// sweep with ErrCanceled. The aborted cell's simulation goes back
	// through the same rewinding put as a completed one, so pooled
	// simulations come back clean.
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
	base, jobs, err := opt.checkSaturation()
	if err != nil {
		return nil, err
	}
	dims, _ := opt.describe()
	// The job captures the base cell and the axis slices, not opt: a
	// closure capturing both moves both to the heap.
	patterns, rates, routers := opt.Patterns, opt.Rates, opt.Routers
	return runGrid(fanOut{workers: workers, pool: opt.Pool, cancel: opt.Cancel, progress: opt.Progress}, seed, jobs,
		func(p *EnginePool, j int, r *rng.Source) (SaturationRow, error) {
			c := base
			c.Pattern = patterns[j/(len(rates)*len(routers))]
			c.Rate = rates[j/len(routers)%len(rates)]
			c.Router = routers[j%len(routers)]
			pt, err := loadPoint(p, &c, r)
			if err != nil {
				return SaturationRow{}, err
			}
			return SaturationRow{
				Dims:         dims,
				Pattern:      c.Pattern,
				Router:       c.Router,
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

// Check is the sweep's pre-run check, the one statement of its rules: the
// entry point Row names (SaturationRow names SaturationSweepWorkers, and
// CongestionShiftRow, ClosedLoopRow, GridlockRow, ReliabilityRow and
// ReplayCompareRow the other five) runs it before anything else, so options
// it refuses — a foreign field, an empty axis, an unknown router, pattern
// or process, a value out of range — fail before any cell, any Emit and any
// simulation.
// It returns the number of rows the sweep emits, and allocates nothing
// unless it fails.
func (opt LoadSweepOptions[Row]) Check() (rows int, err error) {
	switch any((*Row)(nil)).(type) {
	case *SaturationRow:
		_, rows, err = opt.checkSaturation()
	case *CongestionShiftRow:
		_, rows, err = opt.checkCongestion()
	case *ClosedLoopRow:
		_, rows, err = opt.checkClosedLoop()
	case *GridlockRow:
		_, rows, err = opt.checkGridlock()
	case *ReliabilityRow:
		_, rows, err = opt.checkReliability()
	case *ReplayCompareRow:
		_, rows, err = opt.checkReplayCompare()
	default:
		err = fmt.Errorf("ndmesh: no load sweep emits %T rows", *new(Row))
	}
	if err != nil {
		return 0, err
	}
	return rows, nil
}

// checkSaturation is SaturationSweepWorkers' Check. It returns the base
// cell every job copies, validated and defaulted, and the job count, one
// per row.
func (opt *LoadSweepOptions[Row]) checkSaturation() (base LoadOptions, rows int, err error) {
	rows, err = opt.sweepGrid("saturation", "rate", len(opt.Rates),
		"Windows", "FaultRates", "Trials", "Rate", "Capacities", "FaultCounts", "Mechanisms")
	if err != nil {
		return base, 0, err
	}
	if err := validateRates(opt.Process, opt.Rates...); err != nil {
		return base, 0, err
	}
	base = opt.Cell()
	err = base.validateLoadShape()
	return base, rows, err
}

// sweepGrid applies the axis rules the five grid sweeps share and returns
// the grid's cell count. A trace is the replay comparison's alone; the
// entry point's own axes, n cells per (pattern, router), must be set;
// refuse holds the grid to its fields and a probe to one cell; every router
// and pattern must be one the cells can build, over a valid mesh.
func (opt *LoadSweepOptions[Row]) sweepGrid(entry, axis string, n int, foreign ...string) (cells int, err error) {
	if opt.Replay != nil {
		return 0, fmt.Errorf("ndmesh: a %s sweep does not take Replay; ReplayCompareSweepWorkers replays a trace", entry)
	}
	if len(opt.Routers) == 0 || len(opt.Patterns) == 0 || n == 0 {
		return 0, fmt.Errorf("ndmesh: %s sweep needs at least one router, pattern and %s", entry, axis)
	}
	cells = len(opt.Patterns) * n * len(opt.Routers)
	if err := opt.refuse(entry, cells, foreign...); err != nil {
		return 0, err
	}
	for _, r := range opt.Routers {
		if err := route.CheckName(r); err != nil {
			return 0, err
		}
	}
	nodes, err := grid.Nodes(opt.Dims...)
	if err != nil {
		return 0, err
	}
	for _, p := range opt.Patterns {
		if err := traffic.CheckPattern(nodes, p); err != nil {
			return 0, err
		}
	}
	return cells, nil
}

// refuse is the rule every sweep of the given cell count applies to its
// options: the first of the fields foreign to the entry point that is set
// is an error naming it, and a probe limits the sweep to one cell.
func (opt *LoadSweepOptions[Row]) refuse(entry string, cells int, foreign ...string) error {
	for _, f := range foreign {
		if opt.isSet(f) {
			return fmt.Errorf("ndmesh: a %s sweep does not take %s", entry, f)
		}
	}
	if opt.Probe != nil && cells > 1 {
		return fmt.Errorf("ndmesh: a probed sweep must be a single cell (got %d); probes are stateful accumulators and parallel cells would interleave their censuses", cells)
	}
	return nil
}

// describe returns the mesh's row label and node count; the sweep's check
// has passed Dims.
func (opt *LoadSweepOptions[Row]) describe() (label string, nodes int) {
	label, nodes, _ = grid.Describe(opt.Dims...)
	return label, nodes
}

// isSet reports whether the named axis field is set: a list that is not
// empty, or a value that is not zero.
func (opt *LoadSweepOptions[Row]) isSet(field string) bool {
	switch field {
	case "Patterns":
		return len(opt.Patterns) > 0
	case "Rates":
		return len(opt.Rates) > 0
	case "Windows":
		return len(opt.Windows) > 0
	case "FaultRates":
		return len(opt.FaultRates) > 0
	case "Capacities":
		return len(opt.Capacities) > 0
	case "FaultCounts":
		return len(opt.FaultCounts) > 0
	case "Mechanisms":
		return len(opt.Mechanisms) > 0
	case "Trials":
		return opt.Trials != 0
	case "Rate":
		return opt.Rate != 0
	case "Process":
		return opt.Process != ""
	case "NodeCapacity":
		return opt.NodeCapacity != 0
	case "Bubble":
		return opt.Bubble
	case "Faults":
		return opt.Faults != 0
	case "FaultRate":
		return opt.FaultRate != 0
	case "FaultInterval":
		return opt.FaultInterval != 0
	case "FaultStart":
		return opt.FaultStart != 0
	case "Probe":
		return opt.Probe != nil
	}
	panic("ndmesh: sweepGrid names no field " + field)
}

// Cell is the sweep's base load cell: every field the sweep shares with
// LoadOptions by name and type, but the ignored Shards. It is the module's
// only field-by-field copy between option structs: a sweep job, a replay
// comparison's arm and loadgen's recording each set their own axes on a
// copy.
func (opt LoadSweepOptions[Row]) Cell() LoadOptions {
	return LoadOptions{
		Dims: opt.Dims, Lambda: opt.Lambda, Process: opt.Process, Rate: opt.Rate,
		Warmup: opt.Warmup, Measure: opt.Measure, Drain: opt.Drain,
		LinkRate: opt.LinkRate, NodeCapacity: opt.NodeCapacity,
		FlightTimeout: opt.FlightTimeout, RetryBackoff: opt.RetryBackoff,
		Bubble: opt.Bubble, GridlockWindow: opt.GridlockWindow,
		Faults: opt.Faults, FaultInterval: opt.FaultInterval,
		Clustered: opt.Clustered, FaultStart: opt.FaultStart,
		FaultRate: opt.FaultRate, FaultModel: opt.FaultModel,
		FaultShape: opt.FaultShape, FaultRepair: opt.FaultRepair,
		Replay: opt.Replay, Probe: opt.Probe, ProbeEvery: opt.ProbeEvery,
		Pool: opt.Pool, Cancel: opt.Cancel, Progress: opt.Progress,
	}
}

// validateRates rejects rates the arrival process cannot offer faithfully:
// past its MaxRate the realized load silently clips and the curve's
// offered-rate axis would lie (a Bernoulli source caps at 1 msg/node/step, a
// bursty one at its duty cycle).
func validateRates(process string, rates ...float64) error {
	max, err := traffic.MaxRate(process)
	if err != nil {
		return err
	}
	for _, rate := range rates {
		if !finite(rate) || rate <= 0 {
			return fmt.Errorf("ndmesh: injection rate %v must be positive and finite", rate)
		}
		if rate > max {
			return fmt.Errorf("ndmesh: rate %v exceeds what the %s process can offer (max %v msgs/node/step); use a lower rate or the poisson process",
				rate, cmp.Or(process, "bernoulli"), max)
		}
	}
	return nil
}

// validateWindows rejects a closed-loop window below one outstanding
// request.
func validateWindows(windows ...int) error {
	for _, w := range windows {
		if w < 1 {
			return fmt.Errorf("ndmesh: closed-loop window %d must be >= 1", w)
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// cancelCheckInterval is how many steps a load run advances between polls
// of its Cancel hook: frequent enough that a wedged multi-thousand-step
// cell aborts promptly, rare enough to stay invisible on the hot path.
const cancelCheckInterval = 64

// loadPoint executes one load run on a pooled simulation: workload
// injection (open-loop, closed-loop or trace replay) for warmup+measure
// steps, then a drain window, with terminated flights harvested (and
// recycled) every step. newLoadRun rewinds the simulation's workload,
// Engine.Run steps it with loadRun.tick as its stop rule, and fold reads the
// LoadPoint. The cell draws from a copy of r and leaves r as it was; c must
// have passed its entry point's check (validateLoadShape, and
// LoadOptions.check when it replays).
func loadPoint(p *EnginePool, c *LoadOptions, r *rng.Source) (traffic.LoadPoint, error) {
	sim, err := p.get(c.Dims, c.Lambda)
	if err != nil {
		return traffic.LoadPoint{}, err
	}
	// The put rewinds the simulation on every exit, a cancel included: the
	// backlog flights a past-saturation drain leaves go, with their
	// residency, and so do the contention configuration, the probe and the
	// cell's wiring (TestLoadPointLeavesEngineClean).
	defer p.put(sim)
	lr, err := newLoadRun(sim, c, r)
	if err != nil {
		return traffic.LoadPoint{}, err
	}
	eng := lr.eng
	eng.EnableContention(engine.ContentionConfig{
		LinkRate:       c.LinkRate,
		NodeCapacity:   c.NodeCapacity,
		GridlockWindow: c.GridlockWindow,
		FlightTimeout:  c.FlightTimeout,
		Bubble:         c.Bubble,
	})
	// The probe attaches before the first injection, so its census covers
	// the whole run; observation is read-only, so the LoadPoint is
	// byte-identical with or without it.
	eng.SetProbe(c.Probe)
	// Run also ends on a wedged engine; fold then counts the backlog
	// unfinished and reports the run Gridlocked.
	eng.Run(lr.ph.Total(), lr.next)
	if lr.err != nil {
		return traffic.LoadPoint{}, lr.err
	}
	// Harvest the last step; flush what is left of the census.
	eng.DetachDone(lr.harvest)
	eng.FlushCensus()
	return lr.fold(), nil
}

// loadRun is one load cell from its build to its fold: the engine and what
// feeds and reads it. Each Simulation owns one (Simulation.load), and every
// cell on it rewinds it: the embedded loadCell is the cell's wiring, set
// whole by newLoadRun and dropped by Simulation.Reset; the rest is workload
// state the simulation keeps from cell to cell, so a warm cell allocates
// nothing.
type loadRun struct {
	loadCell
	col traffic.Collector
	// stream is the cell's copy of its job stream and faults the fault
	// overlay's stream split off it; every source below draws from them.
	stream, faults rng.Source
	gen            traffic.Generator
	retry          traffic.RetrySource
	loop           traffic.ClosedLoop
	play           traffic.TracePlayer
	rec            traffic.TraceRecorder
	pats           traffic.Patterns
	// proc is the arrival process built for the name procName.
	proc     traffic.Process
	procName string
	// draw is the fault overlays' placement scratch.
	draw fault.Scratch
	// emit, harvest and next are the offer, finish and tick methods, bound
	// once per simulation: a method value handed to Injector.Step,
	// DetachDone or Engine.Run allocates each time it is evaluated.
	emit    func(src, dst grid.NodeID) bool
	harvest func(fl *engine.Flight)
	next    func() bool
}

// loadCell is what one load cell wires into its simulation's loadRun.
type loadCell struct {
	eng *engine.Engine
	fab *mesh.Mesh
	rtr route.Router
	src traffic.Injector
	// cl is non-nil only for a live closed loop: its outstanding windows
	// are released from the harvest. rq is non-nil only for a live open
	// loop with flight timeouts: it re-offers timed-out requests under the
	// same backoff discipline (without it, open-loop escape runs silently
	// under-delivered their offered load; ARCHITECTURE.md "Deadlock escape
	// & graceful degradation").
	cl     *traffic.ClosedLoop
	rq     *traffic.RetrySource
	ph     traffic.Phases
	latObs interface{ ObserveLatency(steps int) }
	rate   float64
	// closed selects closed-loop drop accounting: a refused offer is
	// deferred and retried, never counted as a drop. retried counts each
	// timeout retried, as the source (or the recorded stream) re-offers it.
	// A replay mirrors the accounting of the run it recorded.
	closed, retried bool
	// cancel is the caller's Cancel hook and probeEvery the census flush
	// cadence; err is the cancel or inject error that stopped the run.
	cancel     func() bool
	probeEvery int
	err        error
}

// newLoadRun rewinds a pooled simulation's workload for a cell: the fault
// schedule (the replay's, or an overlay drawn from the cell's stream), the
// router, the injection source for the selected mode and, when asked, the
// recorder around it. It consumes the cell's stream in the order a fresh
// build would and leaves the engine's configuration alone.
func newLoadRun(sim *Simulation, c *LoadOptions, r *rng.Source) (*loadRun, error) {
	shape := sim.shape
	lr := &sim.load
	lr.loadCell = loadCell{
		eng:        sim.engine,
		fab:        sim.mesh,
		ph:         traffic.Phases{Warmup: c.Warmup, Measure: c.Measure, Drain: c.Drain},
		rate:       c.Rate,
		closed:     c.Window > 0,
		retried:    c.FlightTimeout > 0,
		cancel:     c.Cancel,
		probeEvery: max(c.ProbeEvery, 1),
	}
	if lr.next == nil {
		lr.emit, lr.harvest, lr.next = lr.offer, lr.finish, lr.tick
	}
	lr.stream = *r
	// Every schedule lands in sim.sched, which a checkout hands over empty.
	var err error
	switch {
	case c.Replay != nil:
		// The trace carries the origin run's fault schedule; a live fault
		// overlay would double-fault the replay.
		sim.sched.Events = append(sim.sched.Events, c.Replay.Faults...)
		lr.closed, lr.retried = c.Replay.ClosedLoop, c.Replay.FlightTimeout > 0
	case c.FaultRate > 0:
		// Each overlay draws from a stream split off the cell's, so the
		// traffic draws below are byte-identical across fault settings (and
		// the schedule is identical across patterns/rates at a fixed seed).
		// Fault-free cells skip the split, keeping their goldens unchanged.
		lr.stream.SplitInto(&lr.faults)
		err = lr.draw.GenerateProcess(sim.sched, shape, c.faultProcess(), &lr.faults)
	case c.Faults > 0:
		lr.stream.SplitInto(&lr.faults)
		err = lr.draw.Generate(sim.sched, shape, c.Faults, c.faultOverlay(), &lr.faults)
	}
	if err != nil {
		return nil, err
	}
	if lr.rtr, err = sim.router(c.Router); err != nil {
		return nil, err
	}
	var pat traffic.Pattern
	if c.Replay == nil {
		if pat, err = lr.pats.ByName(shape, c.Pattern); err != nil {
			return nil, err
		}
	}
	switch {
	case c.Replay != nil:
		// No retry machinery on replay: the recorded stream already carries
		// the origin run's retried offers.
		lr.play.Reset(c.Replay)
		lr.src = &lr.play
	case c.Window > 0:
		// A closed loop has no nominal rate: Rate and Process go unread.
		lr.rate = 0
		lr.loop.Reset(shape, pat, c.Window, &lr.stream)
		if c.FlightTimeout > 0 {
			lr.loop.ConfigureRetry(c.RetryBackoff)
		}
		lr.cl = &lr.loop
		lr.src = lr.cl
	default:
		if lr.proc == nil || lr.procName != c.Process {
			if lr.proc, err = traffic.ProcessByName(c.Process); err != nil {
				return nil, err
			}
			lr.procName = c.Process
		}
		lr.gen.Reset(shape, pat, lr.proc, c.Rate, &lr.stream)
		lr.src = &lr.gen
		if c.FlightTimeout > 0 {
			lr.retry.Reset(lr.src, shape.NumNodes(), c.RetryBackoff, &lr.stream)
			lr.rq = &lr.retry
			lr.src = lr.rq
		}
	}
	if c.Record != nil {
		// The trace's own Dims, reused; never the caller's c.Dims.
		c.Record.Dims = append(c.Record.Dims[:0], c.Dims...)
		c.Record.Rate = lr.rate
		c.Record.Window = c.Window
		c.Record.ClosedLoop = lr.closed
		c.Record.Warmup, c.Record.Measure, c.Record.Drain = c.Warmup, c.Measure, c.Drain
		// The engine-side configuration shapes every admission verdict, so
		// the trace carries it: a replay inherits these unless the caller
		// overrides deliberately.
		c.Record.Lambda, c.Record.LinkRate, c.Record.NodeCapacity = c.Lambda, c.LinkRate, c.NodeCapacity
		c.Record.FlightTimeout, c.Record.GridlockWindow, c.Record.Bubble = c.FlightTimeout, c.GridlockWindow, c.Bubble
		lr.rec.Reset(lr.src, c.Record) // resets the trace...
		lr.src = &lr.rec
		// ... so the fault schedule is attached afterwards; a re-recorded
		// replay carries its trace's schedule over.
		c.Record.Faults = append(c.Record.Faults, sim.sched.Events...)
	}
	// The probe's latency sink, if it has one, sees every measured delivery.
	lr.latObs, _ = c.Probe.(interface{ ObserveLatency(steps int) })
	lr.col.Reset(lr.ph)
	return lr, nil
}

// tick is the load run's stop rule, called by Engine.Run before every step.
// It harvests the previous step, then flushes its census when due (so a
// retry lands in the census of the timeout that caused it), then polls
// Cancel and injects this step's offers. A cancel or an inject error stops
// the run and is kept in lr.err.
func (lr *loadRun) tick() bool {
	step := lr.eng.StepCount()
	lr.eng.DetachDone(lr.harvest)
	if step%lr.probeEvery == 0 {
		lr.eng.FlushCensus()
	}
	if lr.cancel != nil && step%cancelCheckInterval == 0 && lr.cancel() {
		lr.err = ErrCanceled
	} else if step < lr.ph.InjectUntil() {
		lr.src.Step(lr.emit)
	}
	return lr.err != nil
}

// offer admits one offered message at the cell's current step. Source-queue
// admission: a faulty/disabled source cannot inject, and a full input queue
// refuses the message. An open loop counts the refusal as a drop; a closed
// loop (and the replay of one) leaves it unaccounted — the source keeps the
// slot and retries.
func (lr *loadRun) offer(src, dst grid.NodeID) bool {
	if lr.err != nil {
		return false
	}
	if lr.fab.Status(src) != mesh.Enabled || !lr.eng.Admit(src) {
		if !lr.closed {
			lr.col.Offer(lr.eng.StepCount(), false)
		}
		return false
	}
	if _, err := lr.eng.Inject(src, dst, lr.rtr); err != nil {
		lr.err = err
		return false
	}
	lr.col.Offer(lr.eng.StepCount(), true)
	return true
}

// finish accounts one terminated flight and settles its source.
func (lr *loadRun) finish(fl *engine.Flight) {
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
	retry := oc == traffic.TimedOut && lr.retried
	switch {
	case lr.cl != nil && retry:
		// A timeout kill re-arms the slot for a retry under backoff
		// instead of plainly releasing it.
		lr.cl.Timeout(fl.Msg.Src)
	case lr.cl != nil:
		// Every other terminal outcome frees the source's window slot —
		// delivered or not — or faults would wedge the loop shut.
		lr.cl.Release(fl.Msg.Src)
	case lr.rq != nil && retry:
		// The open loop re-offers the killed request (same src, same dst —
		// there is no window slot to redraw from) after its backoff; the
		// retried offer is emitted through src.Step, so a recording trace
		// captures it like any other.
		lr.rq.Timeout(fl.Msg.Src, fl.Msg.Dst, lr.ph.Measured(fl.StartStep))
	case lr.rq != nil:
		lr.rq.Settle(fl.Msg.Src)
	}
	if retry {
		lr.col.Retry(fl.StartStep)
		lr.eng.NoteRetried()
	}
	lr.col.Finish(fl.StartStep, fl.Msg.Steps, oc)
	if lr.latObs != nil && oc == traffic.Delivered && lr.ph.Measured(fl.StartStep) {
		// Feed the full-distribution histogram the same latencies the
		// summary's exact-sample path sees (measured delivered flights).
		lr.latObs.ObserveLatency(fl.Msg.Steps)
	}
}

// fold reads the cell's LoadPoint. It must run before the put that rewinds
// the simulation, which detaches the backlog and resets the detector.
func (lr *loadRun) fold() traffic.LoadPoint {
	eng := lr.eng
	// Whatever survived the drain and its last harvest is unfinished backlog.
	for _, fl := range eng.Flights() {
		lr.col.Finish(fl.StartStep, fl.Msg.Steps, traffic.Unfinished)
	}
	pt := lr.col.Result(lr.rate, lr.fab.NumNodes())
	pt.Gridlocked = eng.Gridlocked()
	pt.GridlockStep = eng.GridlockStep()
	pt.RecoverySteps = eng.GridlockRecovery()
	if lr.rq != nil {
		pt.RetryDropped = lr.rq.PendingMeasured()
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
	return pt
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
	// NodeCapacity is the per-node input-queue depth; 0 or negative is
	// unbounded, except that on replay 0 inherits the trace's depth.
	LinkRate, NodeCapacity int
	// FlightTimeout/RetryBackoff/Bubble/GridlockWindow configure the
	// deadlock-escape mechanisms; see the SaturationOptions fields of the
	// same names. On replay, FlightTimeout and GridlockWindow are inherited
	// from the trace wherever left zero, and Bubble is inherited when the
	// trace recorded it.
	FlightTimeout, RetryBackoff int
	Bubble                      bool
	GridlockWindow              int
	// Faults/FaultInterval/Clustered are the fixed-count fault overlay; see
	// the SaturationOptions fields of the same names (Faults may not exceed
	// the mesh's interior node count).
	Faults, FaultInterval int
	Clustered             bool
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
	// a live source; no randomness is consumed. The trace owns the mesh,
	// the workload, the phases and the fault schedule, so a replay refuses
	// by name every field it would not read: Dims, Pattern, Process, Rate,
	// Window, the phases, the fault overlay and RetryBackoff. The
	// engine-side configuration (Lambda, LinkRate, NodeCapacity,
	// FlightTimeout, GridlockWindow, Bubble) is inherited from the trace
	// wherever the caller leaves it zero, so a plain replay is
	// byte-identical to the origin run; set a field (or Router, never
	// recorded) to replay under another configuration, or zero the trace's
	// own field to switch a recorded value off.
	Replay *traffic.Trace `json:"-"`
	// Pool, when non-nil, serves the run from that reservoir of warm
	// simulations and takes the simulation back afterwards (see
	// LoadSweepOptions.Pool); Cancel aborts the run with ErrCanceled
	// when it returns true (polled every cancelCheckInterval steps);
	// Progress is called with (done, total) after the run completes.
	Pool     *EnginePool           `json:"-"`
	Cancel   func() bool           `json:"-"`
	Progress func(done, total int) `json:"-"`
}

// replayForeign names the first field set that a replay would not read, or
// returns "": the one list of the fields a replay refuses.
func (opt *LoadOptions) replayForeign() string {
	for _, f := range [...]struct {
		name string
		set  bool
	}{
		{"Dims", len(opt.Dims) > 0}, {"Pattern", opt.Pattern != ""}, {"Process", opt.Process != ""}, {"Rate", opt.Rate != 0},
		{"Window", opt.Window != 0}, {"Warmup", opt.Warmup != 0}, {"Measure", opt.Measure != 0}, {"Drain", opt.Drain != 0},
		{"Faults", opt.Faults != 0}, {"FaultInterval", opt.FaultInterval != 0}, {"FaultStart", opt.FaultStart != 0},
		{"Clustered", opt.Clustered}, {"FaultRate", opt.FaultRate != 0}, {"FaultModel", opt.FaultModel != ""},
		{"FaultShape", opt.FaultShape != 0}, {"FaultRepair", opt.FaultRepair != 0}, {"RetryBackoff", opt.RetryBackoff != 0},
	} {
		if f.set {
			return f.name
		}
	}
	return ""
}

// applyReplay fills the workload fields from the trace and inherits the
// trace's engine-side configuration for every field the caller left zero,
// so a plain replay reproduces the origin run byte-identically.
// opt.Replay must be non-nil and replayForeign empty.
func (opt *LoadOptions) applyReplay() {
	tr := opt.Replay
	opt.Dims = tr.Dims // read-only downstream, as the trace is
	opt.Rate, opt.Window = tr.Rate, tr.Window
	opt.Warmup, opt.Measure, opt.Drain = tr.Warmup, tr.Measure, tr.Drain
	opt.Lambda, opt.LinkRate = cmp.Or(opt.Lambda, tr.Lambda), cmp.Or(opt.LinkRate, tr.LinkRate)
	opt.NodeCapacity = cmp.Or(opt.NodeCapacity, tr.NodeCapacity)
	opt.FlightTimeout = cmp.Or(opt.FlightTimeout, tr.FlightTimeout)
	opt.GridlockWindow = cmp.Or(opt.GridlockWindow, tr.GridlockWindow)
	opt.Bubble = opt.Bubble || tr.Bubble
}

// validateLoadShape checks (and defaults) the workload-independent run
// configuration of a cell, live or replayed: the phase lengths, the
// contention parameters and the fault overlay.
func (opt *LoadOptions) validateLoadShape() error {
	if opt.Measure < 1 {
		return fmt.Errorf("ndmesh: load run needs a measurement window (Measure >= 1)")
	}
	if opt.Warmup < 0 || opt.Drain < 0 {
		return fmt.Errorf("ndmesh: negative phase lengths (warmup %d, drain %d)", opt.Warmup, opt.Drain)
	}
	opt.Lambda, opt.LinkRate = max(opt.Lambda, 1), max(opt.LinkRate, 1)
	opt.FlightTimeout, opt.RetryBackoff = max(opt.FlightTimeout, 0), max(opt.RetryBackoff, 0)
	opt.NodeCapacity, opt.GridlockWindow = max(opt.NodeCapacity, 0), max(opt.GridlockWindow, 0)
	if opt.Bubble && opt.NodeCapacity == 1 {
		return fmt.Errorf("ndmesh: bubble admission with capacity 1 can never admit a flight (NodeCapacity must be >= 2)")
	}
	if opt.FaultStart < 0 {
		return fmt.Errorf("ndmesh: FaultStart %d must be >= 0", opt.FaultStart)
	}
	if err := checkFaultCount("Faults", opt.Dims, opt.Faults); err != nil {
		return err
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
		opt.FaultModel = cmp.Or(opt.FaultModel, fault.DelayBernoulli)
		if opt.FaultModel == fault.DelayWeibull && opt.FaultShape == 0 {
			opt.FaultShape = 1.5
		}
		if opt.FaultRepair < 0 {
			return fmt.Errorf("ndmesh: FaultRepair %v must be >= 0", opt.FaultRepair)
		}
		if opt.FaultRepair > 0 && opt.FaultRepair < 1 {
			return fmt.Errorf("ndmesh: FaultRepair %v is a mean delay in steps (>= 1)", opt.FaultRepair)
		}
		// The process the cell draws: its model, weibull shape and window.
		popt := opt.faultProcess()
		return popt.Check()
	}
	return nil
}

// checkFaultCount refuses, naming field, a fixed-count overlay of more
// faults than the mesh of the given dims has interior nodes: no fault lies
// on the outermost surface.
func checkFaultCount(field string, dims []int, faults int) error {
	interior := 1
	for _, k := range dims {
		interior *= max(k-2, 0)
	}
	if faults > interior {
		return fmt.Errorf("ndmesh: %s %d exceeds the %d interior nodes of the mesh (no fault lies on its outermost surface)", field, faults, interior)
	}
	return nil
}

// faultOverlay is the fixed-count fault overlay a cell with Faults > 0
// draws: the interval defaults to Total/(Faults+1), so the schedule spans
// warmup, measure and drain, and the first fault lands one interval in.
func (opt *LoadOptions) faultOverlay() fault.Options {
	interval := opt.FaultInterval
	if interval < 1 {
		interval = max((opt.Warmup+opt.Measure+opt.Drain)/(opt.Faults+1), 1)
	}
	return fault.Options{Interval: interval, Start: cmp.Or(opt.FaultStart, interval), Clustered: opt.Clustered}
}

// faultProcess is the stochastic fault overlay a cell with FaultRate > 0
// draws, spanning the whole run.
func (opt *LoadOptions) faultProcess() fault.ProcessOptions {
	popt := fault.ProcessOptions{
		Arrival:   fault.Delay{Model: opt.FaultModel, Rate: opt.FaultRate, Shape: opt.FaultShape},
		Start:     opt.FaultStart,
		Horizon:   opt.Warmup + opt.Measure + opt.Drain - 1,
		Clustered: opt.Clustered,
	}
	if opt.FaultRepair > 0 {
		popt.Repair = fault.Delay{Model: fault.DelayBernoulli, Rate: 1 / opt.FaultRepair}
	}
	return popt
}

// Check is LoadRun's pre-run check, the one statement of its rules: LoadRun
// runs it before anything else, so options it refuses — an unknown router,
// pattern or process, a value out of range, a field a replay does not
// read — fail before the run takes a simulation. It returns the number of rows a load run makes, one, and
// allocates nothing unless it fails.
func (opt LoadOptions) Check() (rows int, err error) {
	if err := opt.check(); err != nil {
		return 0, err
	}
	return 1, nil
}

// check is Check on LoadRun's own copy of the options: it resolves the
// trace inheritance (applyReplay) and validateLoadShape's defaults into opt.
func (opt *LoadOptions) check() error {
	if opt.Replay != nil && opt.Record == opt.Replay {
		// Aliasing the two would have the recorder truncate the very
		// offer stream the player is reading — refuse instead of
		// silently replaying (and re-recording) an empty workload.
		return fmt.Errorf("ndmesh: Record and Replay must be distinct traces")
	}
	if opt.Router == "" {
		return fmt.Errorf("ndmesh: load run needs a router")
	}
	if err := route.CheckName(opt.Router); err != nil {
		return err
	}
	if opt.Replay != nil {
		if f := opt.replayForeign(); f != "" {
			return fmt.Errorf("ndmesh: a replay does not take %s (the trace carries the workload, its fault schedule and its retried offers)", f)
		}
		opt.applyReplay()
		if err := opt.Replay.Validate(opt.Dims); err != nil {
			return err
		}
		return opt.validateLoadShape()
	}
	nodes, err := grid.Nodes(opt.Dims...)
	if err != nil {
		return err
	}
	if err := traffic.CheckPattern(nodes, opt.Pattern); err != nil {
		return err
	}
	// A closed loop has no nominal rate to check against a process.
	if opt.Window != 0 {
		err = validateWindows(opt.Window)
	} else {
		err = validateRates(opt.Process, opt.Rate)
	}
	if err != nil {
		return err
	}
	return opt.validateLoadShape()
}

// LoadRun executes one load run under contention and returns its
// latency-throughput point — the single-cell convenience entry for
// library callers who want one point, not a sweep (cmd/loadgen goes
// through SaturationSweepWorkers for open-loop grids; the two paths
// produce identical points, pinned by TestLoadRunMatchesSweepCell: a
// 1-job grid splits the seed exactly as a sweep splits its first cell).
func LoadRun(opt LoadOptions) (traffic.LoadPoint, error) {
	if err := opt.check(); err != nil {
		return traffic.LoadPoint{}, err
	}
	pts, err := runGrid(fanOut{workers: 1, pool: opt.Pool, cancel: opt.Cancel, progress: opt.Progress}, opt.Seed, 1,
		func(p *EnginePool, _ int, r *rng.Source) (traffic.LoadPoint, error) {
			return loadPoint(p, &opt, r)
		}, nil)
	if err != nil {
		return traffic.LoadPoint{}, err
	}
	return pts[0], nil
}
