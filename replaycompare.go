package ndmesh

// Replay-across-routers comparison: one recorded workload trace fanned over
// several routers, one row per router. Because every arm replays the exact
// same offer stream and fault schedule (a traffic.TracePlayer holds its own
// cursor; the trace itself is read-only during replay), any difference in
// the resulting load points is attributable to the router alone — the
// trace-driven analogue of E20's controlled congestion comparison, without
// having to re-draw the workload per arm.
//
// The comparison is the sixth LoadSweepOptions entry point: its rules live
// in Check, and its arms are held to LoadRun's own check, so a
// single-router comparison reproduces LoadRun's replay byte-for-byte.
//
// Determinism follows the repository contract: one rng stream is split per
// router job in row order (replay consumes no randomness, but the split
// keeps the derivation uniform with every other sweep), each job writes
// only its own result slot, and aggregation is serial — byte-identical for
// every worker count.

import (
	"fmt"

	"ndmesh/internal/rng"
	"ndmesh/internal/route"
	"ndmesh/internal/traffic"
)

// ReplayCompareOptions configures the replay comparison, one replay of
// Replay per router: it rejects Patterns, Rates, Windows, FaultRates,
// Trials and the gridlock axes, and, through LoadRun's check, each field a
// replay does not read (LoadOptions.Replay lists them).
type ReplayCompareOptions = LoadSweepOptions[ReplayCompareRow]

// ReplayCompareRow is one router arm's replay of the shared trace.
type ReplayCompareRow struct {
	Router string            `json:"router"`
	Point  traffic.LoadPoint `json:"point"`
}

// ReplayCompareSweepWorkers replays opt.Replay under every router (each
// router arm is one parallel job; workers < 1 means GOMAXPROCS). A replay
// draws no randomness, so the rows do not depend on seed.
func ReplayCompareSweepWorkers(opt ReplayCompareOptions, seed uint64, workers int) ([]ReplayCompareRow, error) {
	base, jobs, err := opt.checkReplayCompare()
	if err != nil {
		return nil, err
	}
	routers := opt.Routers
	return runGrid(fanOut{workers: workers, pool: opt.Pool, cancel: opt.Cancel, progress: opt.Progress}, seed, jobs,
		func(p *EnginePool, j int, r *rng.Source) (ReplayCompareRow, error) {
			c := base
			c.Router = routers[j]
			pt, err := loadPoint(p, &c, r)
			if err != nil {
				return ReplayCompareRow{}, err
			}
			return ReplayCompareRow{Router: c.Router, Point: pt}, nil
		}, emitEach(opt.Emit))
}

// checkReplayCompare is ReplayCompareSweepWorkers' Check. It returns the
// base cell every arm copies, checked by LoadRun's rules with the trace's
// configuration resolved into it, and the row count, one per router.
func (opt *LoadSweepOptions[Row]) checkReplayCompare() (base LoadOptions, rows int, err error) {
	if opt.Replay == nil || len(opt.Routers) == 0 {
		return base, 0, fmt.Errorf("ndmesh: replay comparison needs a trace (Replay) and at least one router")
	}
	if err := opt.refuse("replay comparison", len(opt.Routers),
		"Patterns", "Rates", "Windows", "FaultRates", "Trials", "Capacities", "FaultCounts", "Mechanisms"); err != nil {
		return base, 0, err
	}
	base = opt.Cell()
	base.Router = opt.Routers[0]
	if err := base.check(); err != nil {
		return base, 0, err
	}
	// The arms' cells differ in the router alone, so the other arms' check
	// is their router's: the trace, walked offer by offer, is validated once
	// however many routers compare it.
	for _, router := range opt.Routers[1:] {
		if err := route.CheckName(router); err != nil {
			return base, 0, err
		}
	}
	return base, len(opt.Routers), nil
}
