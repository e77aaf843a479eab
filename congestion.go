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
	"fmt"
	"slices"

	"ndmesh/internal/rng"
)

// CongestionShiftOptions configures the E20 comparison grid, Patterns x
// Rates, every cell run once per router on an identical scenario. Its
// Routers are fixed to the pair it compares, limited then congested; it
// otherwise takes what SaturationOptions takes and also rejects a Probe
// (two arms per cell would interleave their censuses).
type CongestionShiftOptions = LoadSweepOptions[CongestionShiftRow]

// DefaultCongestionShift returns the standard E20 configuration: an 8x8
// mesh with finite router buffers (capacity 8), uniform + transpose
// Bernoulli injection, rates spanning deep underload to past both routers'
// collapse points. A finite NodeCapacity is where the two routers separate
// most: the oblivious router saturates its input buffers into congestion
// collapse while the congested router routes around them.
func DefaultCongestionShift() CongestionShiftOptions {
	return CongestionShiftOptions{
		Dims:         []int{8, 8},
		Lambda:       1,
		Routers:      []string{"limited", "congested"},
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
	base, _, err := opt.checkCongestion()
	if err != nil {
		return nil, nil, err
	}
	dims, _ := opt.describe()
	// One job per (pattern, rate) cell, pattern-major. Both routers replay
	// the cell's scenario from the same stream state (loadPoint draws from a
	// copy of it), so the fault schedule and the offered traffic are
	// byte-identical.
	patterns, rates, routers := opt.Patterns, opt.Rates, opt.Routers
	rows, err := runGrid(fanOut{workers: workers, pool: opt.Pool, cancel: opt.Cancel, progress: opt.Progress}, seed, len(patterns)*len(rates),
		func(p *EnginePool, j int, r *rng.Source) (CongestionShiftRow, error) {
			c := base
			c.Pattern = patterns[j/len(rates)]
			c.Rate = rates[j%len(rates)]
			row := CongestionShiftRow{Dims: dims, Pattern: c.Pattern, OfferedRate: c.Rate}
			for _, router := range routers {
				c.Router = router
				pt, err := loadPoint(p, &c, r)
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
		}, emitEach(opt.Emit))
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

// checkCongestion is CongestionShiftSweepWorkers' Check. It returns the
// base cell every job copies, validated and defaulted, and the row count,
// one per (pattern, rate) cell.
func (opt *LoadSweepOptions[Row]) checkCongestion() (base LoadOptions, rows int, err error) {
	if !slices.Equal(opt.Routers, []string{"limited", "congested"}) {
		return base, 0, fmt.Errorf("ndmesh: a congestion sweep compares Routers [limited congested], got %v", opt.Routers)
	}
	if _, err := opt.sweepGrid("congestion", "rate", len(opt.Rates),
		"Windows", "FaultRates", "Trials", "Rate", "Capacities", "FaultCounts", "Mechanisms", "Probe"); err != nil {
		return base, 0, err
	}
	if err := validateRates(opt.Process, opt.Rates...); err != nil {
		return base, 0, err
	}
	base = opt.Cell()
	err = base.validateLoadShape()
	return base, len(opt.Patterns) * len(opt.Rates), err
}
