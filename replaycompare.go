package ndmesh

// Replay-across-routers comparison: one recorded workload trace fanned over
// several routers, one row per router. Because every arm replays the exact
// same offer stream and fault schedule (a traffic.TracePlayer holds its own
// cursor; the trace itself is read-only during replay), any difference in
// the resulting load points is attributable to the router alone — the
// trace-driven analogue of E20's controlled congestion comparison, without
// having to re-draw the workload per arm.
//
// The comparison takes LoadRun's own options, with the routers as a
// separate argument, and holds each arm to LoadRun's own check, so a
// single-router comparison reproduces the origin run byte-for-byte.
//
// Determinism follows the repository contract: one rng stream is split per
// router job in row order (replay consumes no randomness, but the split
// keeps the derivation uniform with every other sweep), each job writes
// only its own result slot, and aggregation is serial — byte-identical for
// every worker count.

import (
	"fmt"

	"ndmesh/internal/rng"
	"ndmesh/internal/traffic"
)

// ReplayCompareRow is one router arm's replay of the shared trace.
type ReplayCompareRow struct {
	Router string
	Point  traffic.LoadPoint
}

// ReplayCompareSweepWorkers replays opt.Replay across every router (each
// router arm is one parallel job; workers < 1 means GOMAXPROCS), seeded
// with opt.Seed as LoadRun is. It rejects a set Router (the arms come from
// routers) and, with several routers, Record and Probe (one trace or probe
// cannot serve several arms; one router is a single cell, LoadRun's).
func ReplayCompareSweepWorkers(opt LoadOptions, routers []string, workers int) ([]ReplayCompareRow, error) {
	if opt.Replay == nil {
		return nil, fmt.Errorf("ndmesh: replay comparison needs a trace (Replay)")
	}
	if len(routers) == 0 {
		return nil, fmt.Errorf("ndmesh: replay comparison needs at least one router")
	}
	foreign := ""
	switch {
	case opt.Router != "":
		foreign = "Router"
	case opt.Record != nil && len(routers) > 1:
		foreign = "Record"
	case opt.Probe != nil && len(routers) > 1:
		foreign = "Probe"
	}
	if foreign != "" {
		return nil, fmt.Errorf("ndmesh: a replay comparison does not take %s", foreign)
	}
	// Every arm is LoadRun's check on opt with its router, all passed before
	// any arm runs; they share the one resolved configuration (the trace
	// inheritance is resolved once per arm, identically).
	var base LoadOptions
	for _, router := range routers {
		base = opt
		base.Router = router
		if err := base.check(); err != nil {
			return nil, err
		}
	}
	return runGrid(fanOut{workers: workers, pool: opt.Pool, cancel: opt.Cancel, progress: opt.Progress}, opt.Seed, len(routers),
		func(p *EnginePool, j int, r *rng.Source) (ReplayCompareRow, error) {
			c := base
			c.Router = routers[j]
			pt, err := loadPoint(p, &c, r)
			if err != nil {
				return ReplayCompareRow{}, err
			}
			return ReplayCompareRow{Router: routers[j], Point: pt}, nil
		}, nil)
}
