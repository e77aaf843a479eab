package ndmesh

// This file is E21, the closed-loop experiment: instead of offering traffic
// at a nominal open-loop rate, every node keeps a bounded window of
// outstanding requests and reinjects only when one terminates
// (traffic.ClosedLoop). Sweeping the window size traces out the closed-loop
// analogue of a latency-throughput curve: small windows measure unloaded
// latency, large windows drive the network to its self-throttled saturation
// point, and — unlike open-loop injection — the offered load automatically
// backs off where the network congests, which is how request/reply systems
// actually behave. The sweep reports the realized injection rate next to
// the delivered throughput so the self-throttling is visible.
//
// Determinism follows the repository contract: one rng stream is split per
// (pattern, window, router) cell in row order, each job writes only its own
// result slot, and aggregation is serial — byte-identical for every worker
// count (the closed loop releases window slots from the engine's harvest
// pass, which runs in flight-injection order).

import "ndmesh/internal/rng"

// ClosedLoopOptions configures the E21 grid, Patterns x Windows x Routers,
// one closed-loop load run per cell: it takes Windows and rejects Rates,
// FaultRates, Trials, Rate, Process (a closed loop has no arrival process)
// and the gridlock axes (Capacities, FaultCounts, Mechanisms).
type ClosedLoopOptions = LoadSweepOptions[ClosedLoopRow]

// DefaultClosedLoop returns the standard E21 configuration: an 8x8 mesh,
// uniform + transpose request patterns, the limited router, windows from
// single-outstanding to deep saturation. Buffers are unbounded: in a closed
// loop the window itself is the back-pressure (the population is capped at
// window x N by construction — Little's law), which yields the classic
// curve of throughput saturating while latency grows linearly with the
// window. A finite NodeCapacity is still available through the options, but
// beware what it measures: the backtracking PCS router has no buffer-cycle
// deadlock avoidance, so windows past the buffer budget gridlock the mesh —
// deliveries stop and, because a closed loop defers instead of dropping,
// nothing relieves the cycle (the open-loop analogue is E20's congestion
// collapse, visible there as exploding drop counts). The escape mechanisms
// (FlightTimeout + RetryBackoff, Bubble, GridlockWindow) turn that regime
// into a measured, recoverable one — E22 (gridlock.go) maps it
// systematically.
func DefaultClosedLoop() ClosedLoopOptions {
	return ClosedLoopOptions{
		Dims:     []int{8, 8},
		Lambda:   1,
		Routers:  []string{"limited"},
		Patterns: []string{"uniform", "transpose"},
		Windows:  []int{1, 2, 4, 8, 16, 32},
		Warmup:   64,
		Measure:  256,
		Drain:    256,
		LinkRate: 1,
	}
}

// ClosedLoopRow is one (pattern, window, router) cell of the E21 grid.
type ClosedLoopRow struct {
	Dims    string
	Pattern string
	Router  string
	// Window is the per-node outstanding-request bound.
	Window int
	// InjectedRate is the realized injection rate over the measurement
	// window (messages/node/step) — the closed loop's self-throttled
	// offered load; AcceptedRate what was delivered per node-step. The two
	// converge at steady state: a closed loop cannot outrun its deliveries.
	InjectedRate, AcceptedRate float64
	// Injected / Delivered / Unreachable / Lost / Unfinished classify the
	// measurement-window flights (a closed loop never drops: refusals are
	// deferred and retried).
	Injected, Delivered, Unreachable, Lost, Unfinished int
	// LatMean/P50/P95/P99/Max summarize delivered-flight latency in steps.
	LatMean                        float64
	LatP50, LatP95, LatP99, LatMax int
}

// ClosedLoopSweepWorkers runs the E21 window-size grid (each (pattern,
// window, router) cell is one parallel job; workers < 1 means GOMAXPROCS).
func ClosedLoopSweepWorkers(opt ClosedLoopOptions, seed uint64, workers int) ([]ClosedLoopRow, error) {
	// One job per (pattern, window, router) cell, pattern-major — the order
	// the rows are reported in and the order the job streams are split in.
	base, jobs, err := opt.checkClosedLoop()
	if err != nil {
		return nil, err
	}
	dims, nodes := opt.describe()
	patterns, windows, routers := opt.Patterns, opt.Windows, opt.Routers
	return runGrid(fanOut{workers: workers, pool: opt.Pool, cancel: opt.Cancel, progress: opt.Progress}, seed, jobs,
		func(p *EnginePool, j int, r *rng.Source) (ClosedLoopRow, error) {
			c := base
			c.Pattern = patterns[j/(len(windows)*len(routers))]
			c.Window = windows[j/len(routers)%len(windows)]
			c.Router = routers[j%len(routers)]
			pt, err := loadPoint(p, &c, r)
			if err != nil {
				return ClosedLoopRow{}, err
			}
			return ClosedLoopRow{
				Dims:         dims,
				Pattern:      c.Pattern,
				Router:       c.Router,
				Window:       c.Window,
				AcceptedRate: pt.AcceptedRate,
				Injected:     pt.Injected,
				Delivered:    pt.Delivered,
				Unreachable:  pt.Unreachable,
				Lost:         pt.Lost,
				Unfinished:   pt.Unfinished,
				LatMean:      pt.Latency.Mean,
				LatP50:       pt.Latency.P50,
				LatP95:       pt.Latency.P95,
				LatP99:       pt.Latency.P99,
				LatMax:       pt.Latency.Max,
				// validateLoadShape holds Measure >= 1.
				InjectedRate: float64(pt.Injected) / float64(c.Measure*nodes),
			}, nil
		}, emitEach(opt.Emit))
}

// checkClosedLoop is ClosedLoopSweepWorkers' Check. It returns the base
// cell every job copies, validated and defaulted, and the job count, one
// per row.
func (opt *LoadSweepOptions[Row]) checkClosedLoop() (base LoadOptions, rows int, err error) {
	rows, err = opt.sweepGrid("closed-loop", "window", len(opt.Windows),
		"Rates", "FaultRates", "Trials", "Rate", "Process", "Capacities", "FaultCounts", "Mechanisms")
	if err != nil {
		return base, 0, err
	}
	if err := validateWindows(opt.Windows...); err != nil {
		return base, 0, err
	}
	base = opt.Cell()
	err = base.validateLoadShape()
	return base, rows, err
}
