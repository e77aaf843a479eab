package ndmesh

// This file is E20, the congestion-shift experiment: the same
// latency-throughput methodology as the saturation sweep (E19), but run as
// a controlled comparison — for every (pattern, rate) cell the limited
// router and the congestion-aware router replay the *identical* scenario
// (same fault overlay, same injection stream, byte-for-byte), so any
// difference in the curves is attributable to the routing decisions alone.
// The headline output is the saturation-point shift: how much farther up
// the offered-rate axis the congested router pushes the accepted-throughput
// plateau (ROADMAP open item (a)).
//
// Determinism follows the repository contract: one rng stream is split per
// (pattern, rate) cell in row order, each router's run starts from a value
// copy of that stream's state, each job writes only its own result slot,
// and aggregation is serial — byte-identical for every worker count.

import (
	"ndmesh/internal/grid"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
)

// CongestionShiftOptions configures the E20 comparison grid. Every
// (pattern, rate) cell runs once per router on an identical scenario.
type CongestionShiftOptions struct {
	Dims     []int
	Lambda   int
	Patterns []string
	Rates    []float64
	// Process is the arrival process (bernoulli | poisson | bursty).
	Process                string
	Warmup, Measure, Drain int
	// LinkRate and NodeCapacity configure the contention model. A finite
	// NodeCapacity is where the two routers separate most: the oblivious
	// router saturates its input buffers into congestion collapse while the
	// congested router routes around them.
	LinkRate, NodeCapacity int
	// Congestion tunes the congested router's tie-breaking.
	Congestion route.CongestionConfig
	// Faults > 0 overlays a dynamic fault schedule on every cell (both
	// routers see the same schedule).
	Faults, FaultInterval int
	Clustered             bool
	// Progress, when non-nil, is called after every completed cell with
	// (done, total); must be safe for concurrent use.
	Progress func(done, total int) `json:"-"`
}

// DefaultCongestionShift returns the standard E20 configuration: an 8x8
// mesh with finite router buffers (capacity 8), uniform + transpose
// Bernoulli injection, rates spanning deep underload to past both routers'
// collapse points.
func DefaultCongestionShift() CongestionShiftOptions {
	return CongestionShiftOptions{
		Dims:         []int{8, 8},
		Lambda:       1,
		Patterns:     []string{"uniform", "transpose"},
		Rates:        []float64{0.1, 0.2, 0.3, 0.4, 0.5},
		Process:      "bernoulli",
		Warmup:       64,
		Measure:      256,
		Drain:        256,
		LinkRate:     1,
		NodeCapacity: 8,
	}
}

// CongestionShiftRow is one (pattern, rate) cell of the E20 grid: the
// limited and congested measurements of the identical scenario side by
// side.
type CongestionShiftRow struct {
	Dims        string
	Pattern     string
	OfferedRate float64
	// LimitedAccepted/CongestedAccepted are the accepted throughputs
	// (delivered messages per node-step over the measurement window).
	LimitedAccepted, CongestedAccepted float64
	// LimitedDropped/CongestedDropped count source-queue refusals; the
	// collapse signature is drops exploding while accepted falls.
	LimitedDropped, CongestedDropped int
	// LimitedUnfinished/CongestedUnfinished count measured flights still in
	// flight when the drain ended (standing backlog).
	LimitedUnfinished, CongestedUnfinished int
	// LimitedLatMean/CongestedLatMean and the P99s summarize the delivered
	// latency distributions in steps.
	LimitedLatMean, CongestedLatMean float64
	LimitedLatP99, CongestedLatP99   int
}

// CongestionShiftSummary condenses one pattern's curves into the headline
// numbers: each router's saturation point (the offered rate with the
// highest accepted throughput) and the relative throughput shift there.
type CongestionShiftSummary struct {
	Pattern string
	// LimitedSatRate/CongestedSatRate are the offered rates at each
	// router's accepted-throughput peak; LimitedSatAccepted/
	// CongestedSatAccepted the peak accepted throughputs.
	LimitedSatRate, CongestedSatRate         float64
	LimitedSatAccepted, CongestedSatAccepted float64
	// ShiftPct is the relative gain of the congested router's peak accepted
	// throughput over the limited router's, in percent.
	ShiftPct float64
}

// CongestionShiftSweepWorkers runs the E20 grid (each (pattern, rate) cell
// is one parallel job; workers < 1 means GOMAXPROCS, and the results are
// identical for every value).
func CongestionShiftSweepWorkers(opt CongestionShiftOptions, seed uint64, workers int) ([]CongestionShiftRow, []CongestionShiftSummary, error) {
	sopt := SaturationOptions{
		Dims: opt.Dims, Lambda: opt.Lambda,
		Routers:  []string{"limited", "congested"},
		Patterns: opt.Patterns, Rates: opt.Rates, Process: opt.Process,
		Warmup: opt.Warmup, Measure: opt.Measure, Drain: opt.Drain,
		LinkRate: opt.LinkRate, NodeCapacity: opt.NodeCapacity,
		Congestion: opt.Congestion,
		Faults:     opt.Faults, FaultInterval: opt.FaultInterval,
		Clustered: opt.Clustered,
	}
	if err := sopt.validateSaturation(); err != nil {
		return nil, nil, err
	}
	shape, err := grid.NewShape(opt.Dims...)
	if err != nil {
		return nil, nil, err
	}
	// One job per (pattern, rate) cell, pattern-major. Both routers replay
	// the cell's scenario from value copies of the same stream state, so
	// the fault schedule and the offered traffic are byte-identical.
	jobs := len(opt.Patterns) * len(opt.Rates)
	rows, err := runGrid(fanOut{workers: workers, progress: opt.Progress}, seed, jobs,
		func(p *simPool, j int, r *rng.Source) (CongestionShiftRow, error) {
			pattern := opt.Patterns[j/len(opt.Rates)]
			rate := opt.Rates[j%len(opt.Rates)]
			row := CongestionShiftRow{Dims: shape.String(), Pattern: pattern, OfferedRate: rate}
			for _, router := range sopt.Routers {
				stream := *r // identical replay for both routers
				pt, err := sopt.loadPoint(p, workload{pattern: pattern, rate: rate}, router, &stream)
				if err != nil {
					return CongestionShiftRow{}, err
				}
				if router == "limited" {
					row.LimitedAccepted = pt.AcceptedRate
					row.LimitedDropped = pt.Dropped
					row.LimitedUnfinished = pt.Unfinished
					row.LimitedLatMean = pt.Latency.Mean
					row.LimitedLatP99 = pt.Latency.P99
				} else {
					row.CongestedAccepted = pt.AcceptedRate
					row.CongestedDropped = pt.Dropped
					row.CongestedUnfinished = pt.Unfinished
					row.CongestedLatMean = pt.Latency.Mean
					row.CongestedLatP99 = pt.Latency.P99
				}
			}
			return row, nil
		}, nil)
	if err != nil {
		return nil, nil, err
	}

	// Serial aggregation: per pattern, each router's accepted-throughput
	// peak over the rate axis (ties keep the lowest rate).
	summaries := make([]CongestionShiftSummary, 0, len(opt.Patterns))
	for pi, pattern := range opt.Patterns {
		sum := CongestionShiftSummary{Pattern: pattern}
		for ri := range opt.Rates {
			row := rows[pi*len(opt.Rates)+ri]
			if row.LimitedAccepted > sum.LimitedSatAccepted {
				sum.LimitedSatAccepted = row.LimitedAccepted
				sum.LimitedSatRate = row.OfferedRate
			}
			if row.CongestedAccepted > sum.CongestedSatAccepted {
				sum.CongestedSatAccepted = row.CongestedAccepted
				sum.CongestedSatRate = row.OfferedRate
			}
		}
		if sum.LimitedSatAccepted > 0 {
			sum.ShiftPct = 100 * (sum.CongestedSatAccepted - sum.LimitedSatAccepted) / sum.LimitedSatAccepted
		}
		summaries = append(summaries, sum)
	}
	return rows, summaries, nil
}
