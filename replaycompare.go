package ndmesh

// Replay-across-routers comparison: one recorded workload trace fanned over
// several routers, one row per router. Because every arm replays the exact
// same offer stream and fault schedule (a traffic.TracePlayer holds its own
// cursor; the trace itself is read-only during replay), any difference in
// the resulting load points is attributable to the router alone — the
// trace-driven analogue of E20's controlled congestion comparison, without
// having to re-draw the workload per arm.
//
// The engine-side inheritance rules are exactly LoadRun's (both resolve
// their options through LoadOptions.cell): every override field left zero
// is taken from the trace, so a single-router comparison reproduces the
// origin run byte-for-byte.
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

// ReplayCompareOptions configures a replay-across-routers comparison sweep.
type ReplayCompareOptions struct {
	// Trace is the recorded workload every router arm replays.
	Trace *traffic.Trace
	// Routers is the comparison axis; one row per entry, in order.
	Routers []string
	// The remaining fields are engine-side overrides with LoadRun's replay
	// inheritance: zero means "take the trace's recorded value" (negative
	// NodeCapacity forces unbounded buffers; Router and Congestion are never
	// recorded, so they always come from here).
	Lambda                 int
	LinkRate, NodeCapacity int
	Congestion             route.CongestionConfig
	// FlightTimeout/RetryBackoff/Bubble/GridlockWindow configure the
	// deadlock-escape mechanisms (see SaturationOptions); FlightTimeout and
	// GridlockWindow inherit from the trace when zero, and a recorded
	// bubble run keeps bubble admission on every arm.
	FlightTimeout, RetryBackoff int
	Bubble                      bool
	GridlockWindow              int
	// Progress, when non-nil, is called after every completed router arm
	// with (done, total); must be safe for concurrent use.
	Progress func(done, total int) `json:"-"`
}

// ReplayCompareRow is one router arm's replay of the shared trace.
type ReplayCompareRow struct {
	Router string
	Point  traffic.LoadPoint
}

// ReplayCompareSweepWorkers replays one trace across every router (each
// router arm is one parallel job; workers < 1 means GOMAXPROCS).
func ReplayCompareSweepWorkers(opt ReplayCompareOptions, seed uint64, workers int) ([]ReplayCompareRow, error) {
	if opt.Trace == nil {
		return nil, fmt.Errorf("ndmesh: replay comparison needs a trace")
	}
	if len(opt.Routers) == 0 {
		return nil, fmt.Errorf("ndmesh: replay comparison needs at least one router")
	}
	// Resolve the trace inheritance once, through the same rules LoadRun
	// applies, so every arm replays the identical effective configuration.
	sopt, wl := LoadOptions{
		Lambda: opt.Lambda, LinkRate: opt.LinkRate, NodeCapacity: opt.NodeCapacity,
		Congestion:    opt.Congestion,
		FlightTimeout: opt.FlightTimeout, RetryBackoff: opt.RetryBackoff,
		Bubble: opt.Bubble, GridlockWindow: opt.GridlockWindow,
		Replay: opt.Trace,
	}.cell()
	if err := sopt.validateLoadShape(); err != nil {
		return nil, err
	}
	return runGrid(fanOut{workers: workers, progress: opt.Progress}, seed, len(opt.Routers),
		func(p *simPool, j int, r *rng.Source) (ReplayCompareRow, error) {
			pt, err := sopt.loadPoint(p, wl, opt.Routers[j], r)
			if err != nil {
				return ReplayCompareRow{}, err
			}
			return ReplayCompareRow{Router: opt.Routers[j], Point: pt}, nil
		}, nil)
}
