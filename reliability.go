package ndmesh

// This file is E23, the Monte-Carlo reliability experiment: the paper's
// dynamic-routing claim measured as reliability curves. Every cell of the
// (pattern, fault rate, router) grid runs Trials independent load runs,
// each under a different draw of the stochastic fault process
// (fault.GenerateProcess — failures arriving throughout warmup, measure
// and drain, optionally repaired), and the curve reports what fraction of
// the offered traffic the network still delivered, what became
// unreachable, and how latency degraded, as a function of the per-step
// failure rate. Because the process draws from a stream split off the
// trial's, the offered workload is the identical byte sequence at every
// fault rate — the curves compare fault regimes, not traffic accidents.
//
// Determinism follows the repository contract: one rng stream is split
// per trial in job order (cells outer, trials inner), each trial writes
// only its own LoadPoint slot, and the fold from trial points into rows
// is a serial pass over that slice — so the rows are byte-identical for
// every worker count.

import (
	"fmt"
	"sync/atomic"

	"ndmesh/internal/grid"
	"ndmesh/internal/rng"
	"ndmesh/internal/traffic"
)

// ReliabilityOptions configures the E23 grid, Patterns x FaultRates x
// Routers, Trials Monte-Carlo load runs at the open-loop Rate per cell: it
// takes FaultRates, Trials and Rate and rejects Rates, Windows, the
// fixed-count overlay (Faults, FaultInterval, FaultStart), a scalar
// FaultRate, a Probe and the gridlock axes (Capacities, FaultCounts,
// Mechanisms).
type ReliabilityOptions = LoadSweepOptions[ReliabilityRow]

// DefaultReliability returns the standard E23 configuration: an 8x8 mesh
// under moderate uniform open-loop load, fault rates from fault-free to
// roughly one failure every 25 steps, memoryless arrivals with repair, and
// flight timeouts so faults shed wedged traffic instead of accreting it.
// Trials is sized for interactive runs; production curves push it to the
// thousands (the parallel engine makes that a flag, not a rewrite).
func DefaultReliability() ReliabilityOptions {
	return ReliabilityOptions{
		Dims:          []int{8, 8},
		Lambda:        1,
		Routers:       []string{"limited"},
		Patterns:      []string{"uniform"},
		FaultRates:    []float64{0, 0.005, 0.01, 0.02, 0.04},
		FaultModel:    "bernoulli",
		FaultRepair:   150,
		Trials:        16,
		Rate:          0.1,
		Process:       "bernoulli",
		Warmup:        64,
		Measure:       256,
		Drain:         256,
		LinkRate:      1,
		FlightTimeout: 48,
		RetryBackoff:  4,
	}
}

// ReliabilityRow is one (pattern, fault rate, router) cell of the E23
// grid, folded over its Monte-Carlo trials.
type ReliabilityRow struct {
	Dims    string
	Pattern string
	Router  string
	// FaultRate is the mean failures per step; Trials the Monte-Carlo
	// sample size the row aggregates.
	FaultRate float64
	Trials    int
	// Injected..Unfinished are totals across all trials' measurement
	// windows; DeliveredFrac/UnreachableFrac/LostFrac/TimedOutFrac are the
	// corresponding fractions of Injected — the reliability curve proper.
	Injected, Delivered, Unreachable, Lost int
	TimedOut, Unfinished, RetryDropped     int
	DeliveredFrac, UnreachableFrac         float64
	LostFrac, TimedOutFrac                 float64
	// AcceptedRate is the mean delivered throughput per node-step across
	// trials; MeanFailed/MeanRecovered the mean fault-process event counts
	// actually applied per trial (whole-run, not just the measure window);
	// GridlockedTrials how many trials ended terminally gridlocked.
	AcceptedRate              float64
	MeanFailed, MeanRecovered float64
	GridlockedTrials          int
	// LatMean is the delivered-weighted mean latency across trials;
	// LatP50Mean/LatP99Mean average the per-trial quantiles over trials
	// that delivered anything; LatMax is the worst delivered latency seen
	// in any trial.
	LatMean                float64
	LatP50Mean, LatP99Mean float64
	LatMax                 int
}

// ReliabilitySweepWorkers runs the E23 reliability grid (each Monte-Carlo
// trial is one parallel job; workers < 1 means GOMAXPROCS).
func ReliabilitySweepWorkers(opt ReliabilityOptions, seed uint64, workers int) ([]ReliabilityRow, error) {
	cells, shape, err := opt.sweepGrid("reliability", "fault rate", len(opt.FaultRates),
		"Rates", "Windows", "Faults", "FaultRate", "FaultInterval", "FaultStart", "Probe",
		"Capacities", "FaultCounts", "Mechanisms")
	if err != nil {
		return nil, err
	}
	if opt.Trials < 1 {
		return nil, fmt.Errorf("ndmesh: reliability sweep needs Trials >= 1 (got %d)", opt.Trials)
	}
	// The configuration every trial shares is validated (and defaulted) in
	// place — the open-loop rate against its arrival process included — at
	// the grid's highest fault rate, so the fault-process parameters are
	// checked whenever any cell uses them; a trial overrides only its
	// cell's fault rate.
	for _, fr := range opt.FaultRates {
		if !finite(fr) || fr < 0 || fr > 1 {
			return nil, fmt.Errorf("ndmesh: fault rate %v out of range [0, 1]", fr)
		}
		opt.FaultRate = max(opt.FaultRate, fr)
	}
	if err := opt.validateRates(opt.Rate); err != nil {
		return nil, err
	}
	if err := opt.validateLoadShape(); err != nil {
		return nil, err
	}

	// One job per Monte-Carlo trial; cells pattern-major, then fault rate,
	// then router, trials innermost — the order the streams are split in.
	nf, nk, nt := len(opt.FaultRates), len(opt.Routers), opt.Trials
	// With a streaming hook, each cell's fold runs as soon as its last
	// trial lands: the countdown's atomic decrement orders every trial's
	// slot write before the fold that reads them, and the fold itself is
	// the same deterministic serial pass that builds the returned slice —
	// which worker triggers it cannot reach the row.
	var emitCell func(pts []traffic.LoadPoint, j int)
	if opt.Emit != nil {
		remaining := make([]atomic.Int32, cells)
		for c := range remaining {
			remaining[c].Store(int32(nt))
		}
		emitCell = func(pts []traffic.LoadPoint, j int) {
			if cell := j / nt; remaining[cell].Add(-1) == 0 {
				opt.Emit(cell, foldReliabilityCell(&opt, shape, pts, cell, nf, nk, nt))
			}
		}
	}
	pts, err := runGrid(fanOut{workers: workers, pool: opt.Pool, cancel: opt.Cancel, progress: opt.Progress}, seed, cells*nt,
		func(p *simPool, j int, r *rng.Source) (traffic.LoadPoint, error) {
			cell := j / nt
			trial := opt
			trial.FaultRate = opt.FaultRates[cell/nk%nf]
			return trial.loadPoint(p, workload{pattern: opt.Patterns[cell/(nf*nk)], rate: opt.Rate}, opt.Routers[cell%nk], r)
		}, emitCell)
	if err != nil {
		return nil, err
	}

	// Serial fold: trial points into one row per cell, in cell order (the
	// streaming path above already folded; re-folding is cheap and keeps
	// the two paths trivially identical).
	rows := make([]ReliabilityRow, cells)
	for c := 0; c < cells; c++ {
		rows[c] = foldReliabilityCell(&opt, shape, pts, c, nf, nk, nt)
	}
	return rows, nil
}

// foldReliabilityCell folds one cell's Monte-Carlo trial points into its
// row — a deterministic serial pass in trial order, shared verbatim by the
// batch aggregation and the streaming Emit path.
func foldReliabilityCell(opt *ReliabilityOptions, shape *grid.Shape, pts []traffic.LoadPoint, c, nf, nk, nt int) ReliabilityRow {
	row := ReliabilityRow{
		Dims:      shape.String(),
		Pattern:   opt.Patterns[c/(nf*nk)],
		Router:    opt.Routers[c%nk],
		FaultRate: opt.FaultRates[c/nk%nf],
		Trials:    nt,
	}
	failed, recovered := 0, 0
	latNum, accepted := 0.0, 0.0
	p50, p99 := 0.0, 0.0
	delTrials := 0
	for t := 0; t < nt; t++ {
		pt := pts[c*nt+t]
		row.Injected += pt.Injected
		row.Delivered += pt.Delivered
		row.Unreachable += pt.Unreachable
		row.Lost += pt.Lost
		row.TimedOut += pt.TimedOut
		row.Unfinished += pt.Unfinished
		row.RetryDropped += pt.RetryDropped
		failed += pt.Failed
		recovered += pt.Recovered
		accepted += pt.AcceptedRate
		if pt.Gridlocked {
			row.GridlockedTrials++
		}
		if pt.Delivered > 0 {
			latNum += pt.Latency.Mean * float64(pt.Delivered)
			p50 += float64(pt.Latency.P50)
			p99 += float64(pt.Latency.P99)
			delTrials++
			if pt.Latency.Max > row.LatMax {
				row.LatMax = pt.Latency.Max
			}
		}
	}
	if row.Injected > 0 {
		inj := float64(row.Injected)
		row.DeliveredFrac = float64(row.Delivered) / inj
		row.UnreachableFrac = float64(row.Unreachable) / inj
		row.LostFrac = float64(row.Lost) / inj
		row.TimedOutFrac = float64(row.TimedOut) / inj
	}
	row.MeanFailed = float64(failed) / float64(nt)
	row.MeanRecovered = float64(recovered) / float64(nt)
	row.AcceptedRate = accepted / float64(nt)
	if row.Delivered > 0 {
		row.LatMean = latNum / float64(row.Delivered)
	}
	if delTrials > 0 {
		row.LatP50Mean = p50 / float64(delTrials)
		row.LatP99Mean = p99 / float64(delTrials)
	}
	return row
}
