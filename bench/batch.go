package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"ndmesh"
	"ndmesh/internal/engine"
	"ndmesh/internal/rng"
	"ndmesh/internal/traffic"
)

// cell is one load run — the unit the library's loadPoint executes and the
// unit the traced replica re-executes. A sweep is a list of cells in the
// library's job order, so cell j draws from the j-th stream split off the
// sweep seed.
type cell struct {
	dims            []int
	lambda          int
	router, pattern string
	rate            float64 // open loop (bernoulli arrivals)
	window          int     // > 0 selects the closed loop
	ph              traffic.Phases
	ctn             engine.ContentionConfig
	backoff         int
	// faultRate > 0 overlays the bernoulli fault process with geometric
	// repair (mean faultRepair steps), as ReliabilitySweep configures it.
	faultRate, faultRepair float64
}

// variant is how a body is run beside its plain form: the per-layer
// comparisons (shards, probe, workers) reuse the end-to-end bodies.
type variant struct {
	workers, shards int
	probe           engine.Probe
}

var plain = variant{workers: 1, shards: 1}

// sweep is one library call of a batch body.
type sweep struct {
	seed  uint64
	cells []cell
	// cellsPerRow is how many load runs fold into one result row (the
	// Monte-Carlo trials of a reliability cell; 1 elsewhere); opsPerRow how
	// many of the workload's ops that row stands for.
	cellsPerRow, opsPerRow int
	// run makes the library call; emit (may be nil) is invoked as each row
	// becomes available.
	run func(v variant, emit func()) ([]any, error)
	// match reports whether the replica's points reproduce the library's rows.
	match func(rows []any, pts []traffic.LoadPoint) bool
}

// splitN mirrors the sweeps' stream derivation: n children split serially
// off the seed, in job order.
func splitN(seed uint64, n int) []*rng.Source {
	r := rng.New(seed)
	out := make([]*rng.Source, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// conserves checks the flight-conservation partition on one result row.
// SaturationRow and ClosedLoopRow do not carry the TimedOut count: the
// benchmark's open-loop grids run without flight timeouts (so the partition
// is exact), the closed-loop grid with them (so timed-out flights are the
// non-negative remainder).
func conserves(row any) bool {
	switch r := row.(type) {
	case traffic.LoadPoint:
		return r.Injected == r.Delivered+r.Unreachable+r.Lost+r.TimedOut+r.Unfinished
	case ndmesh.ReliabilityRow:
		return r.Injected == r.Delivered+r.Unreachable+r.Lost+r.TimedOut+r.Unfinished
	case ndmesh.SaturationRow:
		return r.Injected == r.Delivered+r.Unreachable+r.Lost+r.Unfinished &&
			r.Offered == r.Injected+r.Dropped
	case ndmesh.ClosedLoopRow:
		return r.Injected >= r.Delivered+r.Unreachable+r.Lost+r.Unfinished
	}
	return false
}

// digestRows hashes rows in their canonical JSON form.
func digestRows(rows []any) [32]byte {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			panic(fmt.Sprintf("bench: encoding a result row: %v", err)) // row structs always marshal
		}
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// batch is a workload whose body is a fixed list of library sweeps run in
// the benchmark's own goroutine.
type batch struct {
	sweeps    []sweep
	ops       int // ops of one body (steps, trials or cells: see README.md)
	wantRows  int
	reference [32]byte // rows digest of the set-up's reference run
}

func (b *batch) nominalSteps() int {
	n := 0
	for _, s := range b.sweeps {
		for _, c := range s.cells {
			n += c.ph.Total()
		}
	}
	return n
}

func (b *batch) opsPerRep() int { return b.ops }

// body runs every sweep once under v and returns the rows and the wall
// time; onRow (may be nil) is called as each row becomes available.
func (b *batch) body(v variant, onRow func()) (rows []any, wall time.Duration, err error) {
	t0 := now()
	for _, s := range b.sweeps {
		rs, err := s.run(v, onRow)
		if err != nil {
			return nil, 0, err
		}
		rows = append(rows, rs...)
	}
	return rows, now() - t0, nil
}

// judge counts the ops of a body that fail a check: a row that breaks
// conservation fails the ops it stands for; a body whose digest departs
// from the reference run (non-determinism) or that errors fails them all.
func (b *batch) judge(rows []any, err error) (digest [32]byte, failed int) {
	if err != nil || len(rows) != b.wantRows {
		return digest, b.ops
	}
	i := 0
	for _, s := range b.sweeps {
		for range len(s.cells) / s.cellsPerRow {
			if !conserves(rows[i]) {
				failed += s.opsPerRow
			}
			i++
		}
	}
	digest = digestRows(rows)
	if digest != b.reference {
		return digest, b.ops
	}
	return digest, failed
}

func (b *batch) setup() error {
	rows, _, err := b.body(plain, nil)
	if err != nil {
		return err
	}
	b.wantRows = len(rows)
	b.reference = digestRows(rows)
	return nil
}

func (b *batch) rep(int) repOut {
	rows, wall, err := b.body(plain, nil)
	digest, failed := b.judge(rows, err)
	return repOut{wall: wall, digest: digest, failed: failed, err: err, lat: []time.Duration{wall}}
}

func (b *batch) close() {}

// --- the three batch workloads -------------------------------------------

// scaled divides a body dimension in quick mode, never below floor.
func scaled(n, div, floor int) int { return max(n/div, floor) }

func newStepSaturated(seed uint64, quick bool) *batch {
	div := 1
	dims := []int{32, 32}
	if quick {
		div, dims = 8, []int{16, 16}
	}
	opt := ndmesh.LoadOptions{
		Dims: dims, Lambda: 1, Router: "limited", Pattern: "uniform",
		Process: "bernoulli", Rate: 0.12,
		Warmup: scaled(128, div, 4), Measure: scaled(256, div, 8), Drain: scaled(128, div, 4),
		LinkRate: 1, Seed: seed,
	}
	ph := traffic.Phases{Warmup: opt.Warmup, Measure: opt.Measure, Drain: opt.Drain}
	s := sweep{
		seed:        seed,
		cellsPerRow: 1,
		opsPerRow:   ph.Total(),
		cells: []cell{{dims: dims, lambda: 1, router: opt.Router, pattern: opt.Pattern,
			rate: opt.Rate, ph: ph, ctn: engine.ContentionConfig{LinkRate: 1}}},
		run: func(v variant, emit func()) ([]any, error) {
			o := opt
			o.Shards, o.Probe = v.shards, v.probe
			pt, err := ndmesh.LoadRun(o)
			return []any{pt}, err
		},
		match: func(rows []any, pts []traffic.LoadPoint) bool {
			return len(pts) == 1 && rows[0] == any(pts[0])
		},
	}
	return &batch{sweeps: []sweep{s}, ops: ph.Total()}
}

func newFaultStorm(seed uint64, quick bool) *batch {
	div := 1
	opt := ndmesh.ReliabilityOptions{
		Dims: []int{16, 16}, Lambda: 2,
		Routers: []string{"limited"}, Patterns: []string{"uniform"},
		FaultRates: []float64{0.05, 0.1, 0.2}, FaultModel: "bernoulli", FaultRepair: 24,
		Trials: 8, Rate: 0.02, Process: "bernoulli",
		LinkRate: 1, FlightTimeout: 48, RetryBackoff: 4, GridlockWindow: 16,
	}
	if quick {
		div, opt.Dims, opt.Trials = 8, []int{10, 10}, 2
	}
	opt.Warmup, opt.Measure, opt.Drain = scaled(64, div, 4), scaled(512, div, 8), scaled(128, div, 4)
	ph := traffic.Phases{Warmup: opt.Warmup, Measure: opt.Measure, Drain: opt.Drain}
	var cells []cell
	for _, fr := range opt.FaultRates {
		for t := 0; t < opt.Trials; t++ {
			cells = append(cells, cell{dims: opt.Dims, lambda: opt.Lambda, router: "limited", pattern: "uniform",
				rate: opt.Rate, ph: ph, backoff: opt.RetryBackoff, faultRate: fr, faultRepair: opt.FaultRepair,
				ctn: engine.ContentionConfig{LinkRate: 1, FlightTimeout: opt.FlightTimeout, GridlockWindow: opt.GridlockWindow}})
		}
	}
	s := sweep{
		seed: seed, cells: cells, cellsPerRow: opt.Trials, opsPerRow: opt.Trials,
		run: func(v variant, emit func()) ([]any, error) {
			o := opt
			o.Shards = v.shards
			if emit != nil {
				o.Emit = func(int, ndmesh.ReliabilityRow) { emit() }
			}
			rows, err := ndmesh.ReliabilitySweepWorkers(o, seed, v.workers)
			return anyRows(rows), err
		},
		// The per-cell fold is private to the library; the replica must
		// reproduce every counter it sums, which pins the simulated work.
		match: func(rows []any, pts []traffic.LoadPoint) bool {
			nt := opt.Trials
			for c, row := range rows {
				var sum ndmesh.ReliabilityRow
				failed := 0
				for _, pt := range pts[c*nt : (c+1)*nt] {
					sum.Injected += pt.Injected
					sum.Delivered += pt.Delivered
					sum.Unreachable += pt.Unreachable
					sum.Lost += pt.Lost
					sum.TimedOut += pt.TimedOut
					sum.Unfinished += pt.Unfinished
					sum.RetryDropped += pt.RetryDropped
					sum.LatMax = max(sum.LatMax, pt.Latency.Max)
					failed += pt.Failed
				}
				r := row.(ndmesh.ReliabilityRow)
				if r.Injected != sum.Injected || r.Delivered != sum.Delivered || r.Unreachable != sum.Unreachable ||
					r.Lost != sum.Lost || r.TimedOut != sum.TimedOut || r.Unfinished != sum.Unfinished ||
					r.RetryDropped != sum.RetryDropped || r.LatMax != sum.LatMax ||
					r.MeanFailed != float64(failed)/float64(nt) {
					return false
				}
			}
			return len(pts) == len(rows)*nt
		},
	}
	return &batch{sweeps: []sweep{s}, ops: len(cells)}
}

func newRouterGrid(seed uint64, quick bool) *batch {
	div := 1
	sat := ndmesh.SaturationOptions{
		Dims: []int{8, 8}, Lambda: 1,
		Routers:  []string{"limited", "congested", "dor", "blind", "oracle"},
		Patterns: []string{"uniform", "transpose", "complement", "bitrev", "hotspot", "neighbor"},
		// Heaviest rate first: the body's first row (ttfr_p50_ms) is then a
		// few milliseconds of saturated stepping, not 0.2 ms of idling whose
		// timing is mostly jitter.
		Rates:   []float64{0.5, 0.35, 0.2, 0.1, 0.05, 0.02},
		Process: "bernoulli", LinkRate: 1, NodeCapacity: 8,
	}
	cl := ndmesh.ClosedLoopOptions{
		Dims: []int{6, 6, 6}, Lambda: 1,
		Routers: []string{"limited", "congested"}, Patterns: []string{"uniform", "hotspot"},
		Windows:  []int{1, 2, 4, 8},
		LinkRate: 1, NodeCapacity: 4, FlightTimeout: 32, RetryBackoff: 4, Bubble: true,
	}
	if quick {
		div = 4
		sat.Patterns, sat.Rates = sat.Patterns[:2], []float64{0.35, 0.05}
		cl.Dims, cl.Windows = []int{4, 4, 4}, []int{1, 4}
	}
	sat.Warmup, sat.Measure, sat.Drain = scaled(16, div, 4), scaled(64, div, 8), scaled(32, div, 4)
	cl.Warmup, cl.Measure, cl.Drain = sat.Warmup, sat.Measure, sat.Drain
	ph := traffic.Phases{Warmup: sat.Warmup, Measure: sat.Measure, Drain: sat.Drain}
	satSeed, clSeed := seed, seed+1

	open := sweep{seed: satSeed, cellsPerRow: 1, opsPerRow: 1,
		run: func(v variant, emit func()) ([]any, error) {
			o := sat
			o.Shards = v.shards
			if emit != nil {
				o.Emit = func(int, ndmesh.SaturationRow) { emit() }
			}
			rows, err := ndmesh.SaturationSweepWorkers(o, satSeed, v.workers)
			return anyRows(rows), err
		},
		match: func(rows []any, pts []traffic.LoadPoint) bool {
			for i, pt := range pts {
				if rows[i] != any(saturationRow(rows[i].(ndmesh.SaturationRow), pt)) {
					return false
				}
			}
			return len(pts) == len(rows)
		},
	}
	for _, p := range sat.Patterns {
		for _, rate := range sat.Rates {
			for _, k := range sat.Routers {
				open.cells = append(open.cells, cell{dims: sat.Dims, lambda: 1, router: k, pattern: p, rate: rate,
					ph: ph, ctn: engine.ContentionConfig{LinkRate: 1, NodeCapacity: sat.NodeCapacity}})
			}
		}
	}
	nodeSteps := ph.Measure
	for _, d := range cl.Dims {
		nodeSteps *= d
	}
	closed := sweep{seed: clSeed, cellsPerRow: 1, opsPerRow: 1,
		run: func(v variant, emit func()) ([]any, error) {
			o := cl
			o.Shards = v.shards
			if emit != nil {
				o.Emit = func(int, ndmesh.ClosedLoopRow) { emit() }
			}
			rows, err := ndmesh.ClosedLoopSweepWorkers(o, clSeed, v.workers)
			return anyRows(rows), err
		},
		match: func(rows []any, pts []traffic.LoadPoint) bool {
			for i, pt := range pts {
				if rows[i] != any(closedLoopRow(rows[i].(ndmesh.ClosedLoopRow), pt, nodeSteps)) {
					return false
				}
			}
			return len(pts) == len(rows)
		},
	}
	for _, p := range cl.Patterns {
		for _, w := range cl.Windows {
			for _, k := range cl.Routers {
				closed.cells = append(closed.cells, cell{dims: cl.Dims, lambda: 1, router: k, pattern: p, window: w,
					ph: ph, backoff: cl.RetryBackoff,
					ctn: engine.ContentionConfig{LinkRate: 1, NodeCapacity: cl.NodeCapacity,
						FlightTimeout: cl.FlightTimeout, Bubble: cl.Bubble}})
			}
		}
	}
	return &batch{sweeps: []sweep{open, closed}, ops: len(open.cells) + len(closed.cells)}
}

// anyRows boxes a typed row slice.
func anyRows[R any](rows []R) []any {
	out := make([]any, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// saturationRow rebuilds the row the open-loop sweep derives from a point;
// the labels (dims, pattern, router) are taken from the library's row.
func saturationRow(labels ndmesh.SaturationRow, pt traffic.LoadPoint) ndmesh.SaturationRow {
	return ndmesh.SaturationRow{
		Dims: labels.Dims, Pattern: labels.Pattern, Router: labels.Router,
		OfferedRate: pt.OfferedRate, AcceptedRate: pt.AcceptedRate,
		Offered: pt.Offered, Injected: pt.Injected, Dropped: pt.Dropped,
		Delivered: pt.Delivered, Unreachable: pt.Unreachable, Lost: pt.Lost, Unfinished: pt.Unfinished,
		LatMean: pt.Latency.Mean, LatP50: pt.Latency.P50, LatP95: pt.Latency.P95,
		LatP99: pt.Latency.P99, LatMax: pt.Latency.Max,
	}
}

// closedLoopRow rebuilds the closed-loop sweep's row from a point.
func closedLoopRow(labels ndmesh.ClosedLoopRow, pt traffic.LoadPoint, nodeSteps int) ndmesh.ClosedLoopRow {
	return ndmesh.ClosedLoopRow{
		Dims: labels.Dims, Pattern: labels.Pattern, Router: labels.Router, Window: labels.Window,
		InjectedRate: float64(pt.Injected) / float64(nodeSteps), AcceptedRate: pt.AcceptedRate,
		Injected: pt.Injected, Delivered: pt.Delivered, Unreachable: pt.Unreachable,
		Lost: pt.Lost, Unfinished: pt.Unfinished,
		LatMean: pt.Latency.Mean, LatP50: pt.Latency.P50, LatP95: pt.Latency.P95,
		LatP99: pt.Latency.P99, LatMax: pt.Latency.Max,
	}
}
