package ndmesh

// One benchmark per experiment of the index in experiments.go's header. Each
// benchmark both times the underlying machinery and reports the experiment's
// headline quantities via b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates the per-experiment numbers (docs/BENCHMARKS.md has the
// method) alongside the throughput of the implementation.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ndmesh/internal/block"
	"ndmesh/internal/boundary"
	"ndmesh/internal/core"
	"ndmesh/internal/engine"
	"ndmesh/internal/fault"
	"ndmesh/internal/frame"
	"ndmesh/internal/grid"
	"ndmesh/internal/ident"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/probe"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
	"ndmesh/internal/traffic"
)

// fig1Faults is the running example of the paper.
var fig1Faults = []grid.Coord{{3, 5, 4}, {4, 5, 4}, {5, 5, 3}, {3, 6, 3}}

// BenchmarkFig1BlockConstruction (E1): Algorithm 1 stabilization on the
// Figure 1 scenario.
func BenchmarkFig1BlockConstruction(b *testing.B) {
	m, _ := meshtest.NewUniform(3, 10)
	var rounds int
	for i := 0; i < b.N; i++ {
		m.Reset()
		var seeds []grid.NodeID
		for _, c := range fig1Faults {
			id := m.Shape().Index(c)
			m.Fail(id)
			seeds = append(seeds, id)
		}
		res := block.Stabilize(m, seeds...)
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "a_rounds")
}

// BenchmarkFig2FrameClassify (E2): frame-level detection around the block.
func BenchmarkFig2FrameClassify(b *testing.B) {
	m, _ := meshtest.NewUniform(3, 10)
	var seeds []grid.NodeID
	for _, c := range fig1Faults {
		id := m.Shape().Index(c)
		m.Fail(id)
		seeds = append(seeds, id)
	}
	block.Stabilize(m, seeds...)
	b.ResetTimer()
	var rounds int
	for i := 0; i < b.N; i++ {
		det := frame.NewDetector(m)
		det.Seed(seeds...)
		for rounds = 0; !det.Quiescent(); rounds++ {
			det.Round()
		}
	}
	b.ReportMetric(float64(rounds), "frame_rounds")
}

// BenchmarkFig3BoundaryConstruction (E3): the boundary flood over the
// block's placement.
func BenchmarkFig3BoundaryConstruction(b *testing.B) {
	m, _ := meshtest.NewUniform(3, 10)
	for _, c := range fig1Faults {
		m.Fail(m.Shape().Index(c))
	}
	block.StabilizeFull(m)
	box := meshtest.NewBox(grid.Coord{3, 5, 3}, grid.Coord{5, 6, 4})
	corner := m.Shape().Index(grid.Coord{6, 4, 5})
	b.ResetTimer()
	var rounds, visits int
	for i := 0; i < b.N; i++ {
		store := info.NewStore(m.Shape())
		p := boundary.NewProtocol(m, store)
		c := p.Start(store.Intern(box), 1, boundary.Deposit, []grid.NodeID{corner})
		for !p.Quiescent() {
			p.Round()
		}
		rounds, visits = c.Rounds, store.TotalRecords()
	}
	b.ReportMetric(float64(rounds), "c_rounds")
	b.ReportMetric(float64(visits), "records")
}

// BenchmarkFig4Recovery (E4): the clean-wave reconstruction after a
// recovery.
func BenchmarkFig4Recovery(b *testing.B) {
	m, _ := meshtest.NewUniform(3, 10)
	var seeds []grid.NodeID
	for _, c := range fig1Faults {
		id := m.Shape().Index(c)
		m.Fail(id)
		seeds = append(seeds, id)
	}
	block.Stabilize(m, seeds...)
	snap := meshtest.Statuses(m)
	rec := m.Shape().Index(grid.Coord{5, 5, 3})
	b.ResetTimer()
	var rounds int
	for i := 0; i < b.N; i++ {
		meshtest.Restore(m, snap)
		m.Recover(rec)
		res := block.Stabilize(m, rec)
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "recovery_rounds")
}

// BenchmarkFig5Identification (E5): the 3-phase distributed identification.
func BenchmarkFig5Identification(b *testing.B) {
	m, _ := meshtest.NewUniform(3, 10)
	var seeds []grid.NodeID
	for _, c := range fig1Faults {
		id := m.Shape().Index(c)
		m.Fail(id)
		seeds = append(seeds, id)
	}
	block.Stabilize(m, seeds...)
	det := frame.NewDetector(m)
	det.Seed(seeds...)
	for !det.Quiescent() {
		det.Round()
	}
	b.ResetTimer()
	var rounds, hops int
	for i := 0; i < b.N; i++ {
		store := info.NewStore(m.Shape())
		p := ident.NewProtocol(m, det, store)
		p.OnIdentified = func(grid.Box, grid.NodeID) {}
		for id := 0; id < m.NumNodes(); id++ {
			if det.Announcement(grid.NodeID(id)).Level > 0 {
				p.Notify(grid.NodeID(id))
			}
		}
		rounds = 0
		for !p.Quiescent() {
			p.Round()
			rounds++
		}
		hops = p.Hops
	}
	b.ReportMetric(float64(rounds), "b_rounds")
	b.ReportMetric(float64(hops), "ident_hops")
}

// BenchmarkFig6InfoPropagation (E6): the full pipeline from faults to
// records at every frame node and wall.
func BenchmarkFig6InfoPropagation(b *testing.B) {
	var records int
	for i := 0; i < b.N; i++ {
		m, _ := meshtest.NewUniform(3, 10)
		md := core.New(m)
		for _, c := range fig1Faults {
			md.ApplyFault(m.Shape().Index(c))
		}
		md.Stabilize()
		records = md.Store.TotalRecords()
	}
	b.ReportMetric(float64(records), "records")
}

// BenchmarkFig7StepEngine (E7): raw step throughput of the execution model
// with an idle information plane (the per-step overhead floor).
func BenchmarkFig7StepEngine(b *testing.B) {
	sim := MustSimulation(Config{Dims: []int{16, 16}, Lambda: 2})
	sim.FailNow(C(8, 8))
	sim.Stabilize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunSteps(1)
	}
}

// BenchmarkTable1Notation (E8): a full dynamic run producing every Table 1
// quantity.
func BenchmarkTable1Notation(b *testing.B) {
	var events int
	for i := 0; i < b.N; i++ {
		sim := MustSimulation(Config{Dims: []int{12, 12}, Lambda: 2})
		if err := sim.GenerateFaults(FaultPlan{Faults: 3, Interval: 40, Start: 2, Seed: 5}); err != nil {
			b.Fatal(err)
		}
		sim.Drain()
		events = len(sim.Events())
	}
	b.ReportMetric(float64(events), "events")
}

// BenchmarkTheorem1Recovery (E9): routing across a dissolving block.
func BenchmarkTheorem1Recovery(b *testing.B) {
	var extra int
	for i := 0; i < b.N; i++ {
		sim := MustSimulation(Config{Dims: []int{16, 16}, Lambda: 2})
		sim.FailNow(C(7, 7))
		sim.FailNow(C(8, 8))
		sim.Stabilize()
		sim.ScheduleRecovery(4, C(8, 8))
		res, err := sim.Route(C(2, 3), C(13, 12), "limited")
		if err != nil {
			b.Fatal(err)
		}
		extra = res.ExtraHops
	}
	b.ReportMetric(float64(extra), "extra_hops")
}

// BenchmarkTheorem2Safety (E10): the safe/unsafe classification.
func BenchmarkTheorem2Safety(b *testing.B) {
	sim := MustSimulation(Config{Dims: []int{16, 16}, Lambda: 1})
	sim.FailNow(C(7, 7))
	sim.FailNow(C(10, 4))
	sim.Stabilize()
	blocks := sim.Blocks()
	src, dst := C(1, 1), C(14, 14)
	b.ResetTimer()
	safe := false
	for i := 0; i < b.N; i++ {
		safe = ClassifySource(blocks, src, dst)
	}
	_ = safe
}

// BenchmarkTheorem3Progress (E11) / BenchmarkTheorem4Detours (E12) /
// BenchmarkTheorem5Unsafe (E13): the randomized bound-validation sweep.
func BenchmarkTheorem3Progress(b *testing.B) {
	benchTheorems(b, []int{16, 16}, 5)
}

func BenchmarkTheorem4Detours(b *testing.B) {
	benchTheorems(b, []int{12, 12}, 8)
}

func BenchmarkTheorem5Unsafe(b *testing.B) {
	benchTheorems(b, []int{10, 10, 10}, 3)
}

func benchTheorems(b *testing.B, dims []int, trials int) {
	b.Helper()
	var viol int
	for i := 0; i < b.N; i++ {
		rep, err := TheoremSweepWorkers(dims, trials, uint64(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
		viol = rep.Violations3 + rep.Violations4 + rep.Violations5
		if viol != 0 {
			b.Fatalf("theorem violations: %+v", rep)
		}
	}
	b.ReportMetric(float64(viol), "violations")
}

// BenchmarkConvergenceSweep (E14): the convergence study.
func BenchmarkConvergenceSweep(b *testing.B) {
	var maxB int
	for i := 0; i < b.N; i++ {
		rows, err := ConvergenceSweepWorkers([][]int{{16, 16}, {8, 8, 8}}, 3, 11, 0)
		if err != nil {
			b.Fatal(err)
		}
		maxB = 0
		for _, r := range rows {
			if r.BRounds > maxB {
				maxB = r.BRounds
			}
		}
	}
	b.ReportMetric(float64(maxB), "max_b_rounds")
}

// BenchmarkDegradationSweep (E15): routing under dynamic faults, all three
// routers (reduced trial count: the full table is cmd/sweep's job).
func BenchmarkDegradationSweep(b *testing.B) {
	opt := DefaultDegradation()
	opt.Trials = 4
	opt.Intervals = []int{4, 32}
	var blindExtra float64
	for i := 0; i < b.N; i++ {
		rows, err := DegradationSweepWorkers(opt, uint64(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Router == "blind" {
				blindExtra = r.MeanExtra
			}
		}
	}
	b.ReportMetric(blindExtra, "blind_extra")
}

// BenchmarkLambdaSweep (E15b): the λ ablation.
func BenchmarkLambdaSweep(b *testing.B) {
	var limExtra float64
	for i := 0; i < b.N; i++ {
		rows, err := LambdaSweepWorkers([]int{16, 16}, []int{1, 8}, 5, uint64(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Router == "limited" && r.Lambda == 8 {
				limExtra = r.MeanExtra
			}
		}
	}
	b.ReportMetric(limExtra, "limited_extra_at_l8")
}

// BenchmarkMemorySweep (E16): the memory-footprint study.
func BenchmarkMemorySweep(b *testing.B) {
	var records int
	for i := 0; i < b.N; i++ {
		rows, err := MemorySweepWorkers([][]int{{16, 16}}, []int{4}, 3, 0)
		if err != nil {
			b.Fatal(err)
		}
		records = rows[0].Records
	}
	b.ReportMetric(float64(records), "records")
}

// BenchmarkOscillationSweep (E17): churn and locality under short
// intervals.
func BenchmarkOscillationSweep(b *testing.B) {
	var affected float64
	for i := 0; i < b.N; i++ {
		rows, err := OscillationSweepWorkers([]int{16, 16}, 4, []int{4}, 3, uint64(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
		affected = rows[0].MeanAffected
	}
	b.ReportMetric(affected, "affected_per_event")
}

// BenchmarkRouterStep times a full routing run of each router on a mesh
// with blocks and full information in place (the per-hop cost). Flights are
// recycled through the engine's free list between iterations, so the loop
// measures routing, not setup churn.
func BenchmarkRouterStep(b *testing.B) {
	for _, name := range []string{"limited", "blind", "oracle", "dor"} {
		b.Run(name, func(b *testing.B) {
			sim := MustSimulation(Config{Dims: []int{16, 16}, Lambda: 1})
			sim.FailNow(C(7, 7))
			sim.FailNow(C(8, 8))
			sim.Stabilize()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.engine.ClearFlights()
				res, err := sim.Route(C(1, 1), C(14, 14), name)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Arrived && name != "dor" {
					b.Fatalf("%s did not arrive: %+v", name, res)
				}
			}
		})
	}
}

// BenchmarkTrialRestart compares the two ways to get a fault-free
// simulation for the next trial: a fresh NewSimulation against
// Simulation.Reset of a used one. The ratio is the per-trial saving the
// sweeps collect by checking their simulations out of an EnginePool.
func BenchmarkTrialRestart(b *testing.B) {
	cfg := Config{Dims: []int{16, 16}, Lambda: 2}
	dirty := func(sim *Simulation) {
		sim.FailNow(C(7, 7))
		sim.FailNow(C(8, 8))
		sim.Stabilize()
	}
	b.Run("new", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim := MustSimulation(cfg)
			dirty(sim)
		}
	})
	b.Run("reset", func(b *testing.B) {
		sim := MustSimulation(cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Reset()
			dirty(sim)
		}
	})
}

// BenchmarkTheoremSweepWorkers runs the theorem sweep at one worker and at
// NumCPU workers; on a multicore machine the ratio shows the parallel
// engine's speedup, with byte-identical results (asserted by the tests).
func BenchmarkTheoremSweepWorkers(b *testing.B) {
	for _, w := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := TheoremSweepWorkers([]int{16, 16}, 16, uint64(i+1), w)
				if err != nil {
					b.Fatal(err)
				}
				if v := rep.Violations3 + rep.Violations4 + rep.Violations5; v != 0 {
					b.Fatalf("theorem violations: %+v", rep)
				}
			}
		})
	}
}

// BenchmarkDegradationSweepWorkers is the same scaling probe over the
// degradation sweep (the heaviest table of cmd/sweep).
func BenchmarkDegradationSweepWorkers(b *testing.B) {
	for _, w := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opt := DefaultDegradation()
			opt.Trials = 8
			opt.Intervals = []int{4, 32}
			for i := 0; i < b.N; i++ {
				if _, err := DegradationSweepWorkers(opt, uint64(i+1), w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLabelingScale measures Algorithm 1 throughput vs. mesh size (the
// reactive protocol must be O(block), not O(N)).
func BenchmarkLabelingScale(b *testing.B) {
	for _, k := range []int{16, 32, 64} {
		b.Run(meshtest.MustShape(k, k).String(), func(b *testing.B) {
			m, _ := meshtest.NewUniform(2, k)
			mid := grid.Coord{k / 2, k / 2}
			mid2 := grid.Coord{k/2 + 1, k/2 + 1}
			for i := 0; i < b.N; i++ {
				m.Reset()
				ids := []grid.NodeID{m.Shape().Index(mid), m.Shape().Index(mid2)}
				m.Fail(ids[0])
				m.Fail(ids[1])
				block.Stabilize(m, ids...)
			}
		})
	}
}

// BenchmarkContentionStep (E19a) measures one step of the contention-mode
// engine with a standing population of limited-router flights arbitrating
// for links — the inner loop of every load run. The steady-state path must
// stay at 0 allocs/op (asserted by TestContentionStepAllocFree): flights,
// messages and arbitration state all recycle.
func BenchmarkContentionStep(b *testing.B) {
	sim := MustSimulation(Config{Dims: []int{16, 16}})
	eng := sim.engine
	eng.EnableContention(engine.ContentionConfig{LinkRate: 1, NodeCapacity: 4})
	shape := sim.shape
	r := rng.New(1)
	type pair struct{ src, dst grid.NodeID }
	pairs := make([]pair, 24)
	for i := range pairs {
		s, d, err := traffic.DrawLongHaulPair(shape, r)
		if err != nil {
			b.Fatal(err)
		}
		pairs[i] = pair{s, d}
	}
	inject := func() {
		for _, p := range pairs {
			if _, err := eng.Inject(p.src, p.dst, route.Limited{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	inject()
	// Warm the free lists and scratch buffers outside the timer.
	for i := 0; i < 64; i++ {
		eng.Step()
		eng.DetachDone(nil)
		if len(eng.Flights()) == 0 {
			inject()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
		eng.DetachDone(nil)
		if len(eng.Flights()) == 0 {
			b.StopTimer()
			inject()
			b.StartTimer()
		}
	}
}

// BenchmarkClosedLoopStep (E21a) measures one step of a closed-loop load
// run at steady state: the bounded-window source's draws and top-ups, the
// contention step, and the harvest pass that releases window slots. Like
// every other load hot path it must stay at 0 allocs/op
// (TestClosedLoopStepAllocFree).
func BenchmarkClosedLoopStep(b *testing.B) {
	sim := MustSimulation(Config{Dims: []int{16, 16}})
	eng := sim.engine
	eng.EnableContention(engine.ContentionConfig{LinkRate: 1})
	shape := sim.shape
	pat, err := traffic.ByName(shape, "uniform")
	if err != nil {
		b.Fatal(err)
	}
	cl := traffic.NewClosedLoop(shape, pat, 4, rng.New(1))
	emit := func(src, dst grid.NodeID) bool {
		if !eng.Admit(src) {
			return false
		}
		if _, err := eng.Inject(src, dst, route.Limited{}); err != nil {
			b.Fatal(err)
		}
		return true
	}
	release := func(fl *engine.Flight) { cl.Release(fl.Msg.Src) }
	step := func() {
		cl.Step(emit)
		eng.Step()
		eng.DetachDone(release)
	}
	// Reach the closed loop's standing population before the timer.
	for i := 0; i < 256; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(eng.Flights())), "in_flight")
}

// BenchmarkGridlockEscapeStep (E22a) measures one step of a closed-loop
// run with every deadlock-escape mechanism live: tight finite buffers in
// the gridlock regime, stall-age bookkeeping, flights timing out and being
// killed back to their sources, the closed loop re-arming those slots under
// jittered exponential backoff, bubble admission gating injection, and the
// zero-progress detector latching and unlatching as kills restore
// progress. The delta against BenchmarkClosedLoopStep is the price of the
// escape machinery; the path must stay at 0 allocs/op (asserted by
// TestEscapeClosedLoopStepAllocFree).
func BenchmarkGridlockEscapeStep(b *testing.B) {
	sim := MustSimulation(Config{Dims: []int{16, 16}})
	eng := sim.engine
	eng.EnableContention(engine.ContentionConfig{
		LinkRate: 1, NodeCapacity: 3,
		FlightTimeout: 4, GridlockWindow: 4, Bubble: true,
	})
	shape := sim.shape
	pat, err := traffic.ByName(shape, "transpose")
	if err != nil {
		b.Fatal(err)
	}
	cl := traffic.NewClosedLoop(shape, pat, 4, rng.New(1))
	cl.ConfigureRetry(2)
	emit := func(src, dst grid.NodeID) bool {
		if !eng.Admit(src) {
			return false
		}
		if _, err := eng.Inject(src, dst, route.Limited{}); err != nil {
			b.Fatal(err)
		}
		return true
	}
	retried := 0
	harvest := func(fl *engine.Flight) {
		if fl.Msg.TimedOut {
			retried++
			cl.Timeout(fl.Msg.Src)
		} else {
			cl.Release(fl.Msg.Src)
		}
	}
	step := func() {
		cl.Step(emit)
		eng.Step()
		eng.DetachDone(harvest)
	}
	// Reach steady state — including a warm free list of killed-and-recycled
	// flights — before the timer.
	for i := 0; i < 256; i++ {
		step()
	}
	if retried == 0 {
		b.Fatal("no retries after warmup; the escape path is not being measured")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(eng.Flights())), "in_flight")
	b.ReportMetric(float64(retried), "retried")
}

// BenchmarkFaultProcessStep (E23a) measures one step of an open-loop run
// under a live stochastic fault process with repair: every step may apply
// fault events (relabeling waves, identification runs, boundary floods,
// store deposits and deletion-trigger cancellations all riding the step),
// flights hit fresh faults mid-path and time out back to their sources,
// and the trial wraps around — model reset, engine reset, schedule replay —
// exactly as a Monte-Carlo reliability trial does. The wrap cost is
// amortized into the per-step figure, so this is the per-step price of an
// E23 trial. The path must stay at 0 allocs/op once the pools are warm
// (asserted by TestFaultProcessStepAllocFree in internal/engine).
func BenchmarkFaultProcessStep(b *testing.B) {
	sim := MustSimulation(Config{Dims: []int{16, 16}})
	eng := sim.engine
	// Simulation.Reset installs the free configuration, so every trial
	// wrap turns contention back on.
	cfg := engine.ContentionConfig{
		LinkRate: 1, NodeCapacity: 4,
		FlightTimeout: 16, GridlockWindow: 8,
	}
	eng.EnableContention(cfg)
	shape := sim.shape
	fab := sim.mesh
	const horizon = 64
	const trialSteps = horizon + 16
	sched, err := fault.GenerateProcess(shape, fault.ProcessOptions{
		Arrival: fault.Delay{Model: fault.DelayBernoulli, Rate: 0.08},
		Repair:  fault.Delay{Model: fault.DelayBernoulli, Rate: 1.0 / 16},
		Horizon: horizon - 1,
	}, rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	setSchedule(sim, sched)
	var rtr route.Router = route.Congested{}
	srcs := []grid.Coord{{1, 1}, {1, 2}, {2, 1}, {14, 14}, {13, 14}, {14, 13}}
	dsts := []grid.Coord{{14, 14}, {14, 13}, {13, 14}, {1, 1}, {2, 1}, {1, 2}}
	stepIdx, trials, timedOut := 0, 0, 0
	countTimeout := func(fl *engine.Flight) {
		if fl.Msg.TimedOut {
			timedOut++
		}
	}
	step := func() {
		if stepIdx == trialSteps {
			sim.Reset()
			eng.EnableContention(cfg)
			setSchedule(sim, sched)
			stepIdx = 0
			trials++
		}
		for i := range srcs {
			src := shape.Index(srcs[i])
			if fab.Status(src) != mesh.Enabled || !eng.Admit(src) {
				continue
			}
			if _, err := eng.Inject(src, shape.Index(dsts[i]), rtr); err != nil {
				b.Fatal(err)
			}
		}
		eng.Step()
		eng.DetachDone(countTimeout)
		stepIdx++
	}
	// Warm every pool to its high-water mark: flights come off the free
	// list LIFO, so rarely-reused ones warm their routing scratch late.
	for i := 0; i < 20*trialSteps; i++ {
		if i == trialSteps { // count the timeouts of wrapped trials only
			timedOut = 0
		}
		step()
	}
	if len(eng.Events) == 0 {
		b.Fatal("no fault events applied; the process is not being measured")
	}
	if timedOut == 0 {
		b.Fatal("no flight timed out after a trial wrap; the escape path is not being measured")
	}
	timedOut = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if !eng.ContentionEnabled() {
		b.Fatal("contention is off after the timed steps; the escape path was not measured")
	}
	b.ReportMetric(float64(trials), "trials")
	b.ReportMetric(float64(len(eng.Events)), "events_last_trial")
	b.ReportMetric(float64(timedOut)/float64(b.N), "timeouts/op")
}

// BenchmarkCongestedContentionStep (E20a) is BenchmarkContentionStep with
// the congestion-aware router: the same standing population arbitrating
// for links, but every stalled flight consulting the LoadView (residency +
// link pending) before re-deciding. The delta against
// BenchmarkContentionStep is the price of load awareness; the path must
// stay at 0 allocs/op (asserted by TestCongestedStepAllocFree).
func BenchmarkCongestedContentionStep(b *testing.B) {
	sim := MustSimulation(Config{Dims: []int{16, 16}})
	eng := sim.engine
	eng.EnableContention(engine.ContentionConfig{LinkRate: 1, NodeCapacity: 4})
	shape := sim.shape
	r := rng.New(1)
	type pair struct{ src, dst grid.NodeID }
	pairs := make([]pair, 24)
	for i := range pairs {
		s, d, err := traffic.DrawLongHaulPair(shape, r)
		if err != nil {
			b.Fatal(err)
		}
		pairs[i] = pair{s, d}
	}
	inject := func() {
		for _, p := range pairs {
			if _, err := eng.Inject(p.src, p.dst, route.Congested{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	inject()
	for i := 0; i < 64; i++ {
		eng.Step()
		eng.DetachDone(nil)
		if len(eng.Flights()) == 0 {
			inject()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
		eng.DetachDone(nil)
		if len(eng.Flights()) == 0 {
			b.StopTimer()
			inject()
			b.StartTimer()
		}
	}
}

// BenchmarkSaturationPoint (E19b) times one full latency-throughput point
// — warmup, measurement and drain of an 8x8 uniform-random Bernoulli run
// near saturation — and reports its headline quantities.
func BenchmarkSaturationPoint(b *testing.B) {
	opt := DefaultSaturation()
	opt.Patterns = []string{"uniform"}
	opt.Rates = []float64{0.35}
	opt.Warmup, opt.Measure, opt.Drain = 32, 128, 128
	// Fixed seed: the reported metrics must not depend on -benchtime.
	var last SaturationRow
	for i := 0; i < b.N; i++ {
		rows, err := SaturationSweepWorkers(opt, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = rows[0]
	}
	b.ReportMetric(float64(last.Delivered), "delivered")
	b.ReportMetric(last.LatMean, "lat_mean")
	b.ReportMetric(float64(last.LatP99), "lat_p99")
}

// BenchmarkProbedContentionStep measures the tentpole overhead
// claim of the telemetry layer: the same near-saturation 32x32 step, bare
// vs observed by the FULL recorder set (time series, heatmap, latency
// histogram, live snapshot) with a census flush every step. The probed
// arm must stay at 0 allocs/op (TestProbedStepAllocFree asserts it) and
// within a few percent of the bare step — the census accumulates O(live
// flights) increments inside loops the commit already runs, and the flush
// folds O(nodes + dirty links) counters against a step that is itself
// O(nodes + flights). The deep steady-state population (open-loop
// injection past the 32x32 uniform saturation point, with finite router
// buffers so it reaches a true steady state) is the honest denominator: on
// a near-empty mesh the flush would dominate and the ratio would mean
// nothing.
func BenchmarkProbedContentionStep(b *testing.B) {
	run := func(b *testing.B, probed bool) {
		sim := MustSimulation(Config{Dims: []int{32, 32}})
		eng := sim.engine
		eng.EnableContention(engine.ContentionConfig{LinkRate: 1, NodeCapacity: 4})
		shape := sim.shape
		set := &probe.Set{}
		set.AddProbe(probe.NewTimeSeries(256))
		set.AddProbe(probe.NewHeatmap(shape.NumNodes(), shape.NumDirs()))
		set.AddProbe(&probe.Snapshot{})
		set.AddLatency(probe.NewLatencyHist())
		harvest := func(fl *engine.Flight) {
			if fl.Msg.Arrived {
				set.ObserveLatency(fl.Msg.Steps)
			}
		}
		if probed {
			eng.SetProbe(set)
		}
		pat, err := traffic.ByName(shape, "uniform")
		if err != nil {
			b.Fatal(err)
		}
		proc, err := traffic.ProcessByName("bernoulli")
		if err != nil {
			b.Fatal(err)
		}
		gen := traffic.NewGenerator(shape, pat, proc, 0.22, rng.New(1))
		step := func() {
			gen.Step(func(src, dst grid.NodeID) bool {
				if !eng.Admit(src) {
					return false
				}
				if _, err := eng.Inject(src, dst, route.Limited{}); err != nil {
					b.Fatal(err)
				}
				return true
			})
			eng.Step()
			if probed {
				eng.DetachDone(harvest)
				eng.FlushCensus()
			} else {
				eng.DetachDone(nil)
			}
		}
		for i := 0; i < 512; i++ {
			step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
		b.StopTimer()
		b.ReportMetric(float64(len(eng.Flights())), "flights")
	}
	b.Run("bare", func(b *testing.B) { run(b, false) })
	b.Run("probed", func(b *testing.B) { run(b, true) })
}

// BenchmarkStepSaturatedBody is one body of the standing benchmark's
// `step-saturated` workload — the LoadRun cell of bench/batch.go's
// newStepSaturated at full size and seed 1, the one
// TestStepSaturatedCellPinned pins — so the profile of the hot step
// (engine.Step -> route.AdvanceGated -> classify) is
// `go test -run '^$' -bench StepSaturatedBody -cpu 1 -cpuprofile cpu.prof .`
// (recipe and reference tables in docs/BENCHMARKS.md).
func BenchmarkStepSaturatedBody(b *testing.B) {
	b.ReportAllocs()
	var delivered int
	for i := 0; i < b.N; i++ {
		pt, err := LoadRun(stepSaturatedBody)
		if err != nil {
			b.Fatal(err)
		}
		delivered = pt.Delivered
	}
	b.ReportMetric(float64(delivered), "delivered")
}

// stepSaturatedBody is the options of bench/batch.go's newStepSaturated at
// full size and seed 1: one LoadRun cell on a saturated 32x32.
var stepSaturatedBody = LoadOptions{
	Dims: []int{32, 32}, Lambda: 1, Router: "limited", Pattern: "uniform",
	Process: "bernoulli", Rate: 0.12, Warmup: 128, Measure: 256, Drain: 128,
	LinkRate: 1, Seed: 1,
}

// coldStepSaturatedAllocs is TestColdStepSaturatedAllocs's ratchet (the
// cell reads 114 with or without the race detector and at -cpu 2; 143 while
// the engine's flight lists grew by append). Only ever lower it.
const coldStepSaturatedAllocs = 126

// TestColdStepSaturatedAllocs holds one cold LoadRun of stepSaturatedBody
// on no pool — the simulation built, every flight and header carved from
// empty — to the ratchet: flights and their path stacks fill at an
// allocation per chunk, chunks doubling up to 64 KiB, and the link and
// flight lists are sized when the engine is built (304 when each chunk held
// 64 flights beside a hand-rolled flight slab). The count is the least of
// two runs, since a collection ending inside a run counts the runtime's own
// allocations.
func TestColdStepSaturatedAllocs(t *testing.T) {
	got := uint64(math.MaxUint64)
	for range 2 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pt, err := LoadRun(stepSaturatedBody)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Delivered == 0 {
			t.Fatal("the step-saturated cell delivered nothing")
		}
		got = min(got, after.Mallocs-before.Mallocs)
	}
	t.Logf("a cold step-saturated cell allocates %d times", got)
	if got > coldStepSaturatedAllocs {
		t.Fatalf("a cold step-saturated cell allocates %d times, ratchet %d", got, coldStepSaturatedAllocs)
	}
}

// faultStormBody is the options of bench/batch.go's newFaultStorm at full
// size: 3 fault rates x 8 trials of a 16x16 storm cell.
var faultStormBody = ReliabilityOptions{
	Dims: []int{16, 16}, Lambda: 2,
	Routers: []string{"limited"}, Patterns: []string{"uniform"},
	FaultRates: []float64{0.05, 0.1, 0.2}, FaultModel: "bernoulli", FaultRepair: 24,
	Trials: 8, Rate: 0.02, Process: "bernoulli",
	Warmup: 64, Measure: 512, Drain: 128,
	LinkRate: 1, FlightTimeout: 48, RetryBackoff: 4, GridlockWindow: 16,
}

// coldStormAllocs is TestColdStormAllocs's ratchet (the body reads 207, 208
// under the race detector; 209 while the information plane kept boxes'
// text and copies and retired runs one round late; 262 while the engine's
// flight lists and the labeling and frame rounds' lists grew by append).
// Only ever lower it.
const coldStormAllocs = 219

// TestColdStormAllocs holds one cold body of the fault-storm workload —
// ReliabilitySweepWorkers at faultStormBody's options on no pool, so every
// simulation is built and every per-node list filled from empty — to the
// ratchet: the fill costs an allocation per chunk of lists, not one per
// node per doubling (3,043 when each list grew by append), and the
// information plane's floods, walkers and watches come from chunks too (988
// when each was allocated on its own), and the labeling and frame rounds
// take their node lists' bound on their first growth. The count is the
// least of two runs, since a collection ending inside a run counts the
// runtime's own allocations.
func TestColdStormAllocs(t *testing.T) {
	got := uint64(math.MaxUint64)
	for range 2 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows, err := ReliabilitySweepWorkers(faultStormBody, 1, 1)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if rows[len(rows)-1].Delivered == 0 {
			t.Fatal("the storm body delivered nothing")
		}
		got = min(got, after.Mallocs-before.Mallocs)
	}
	t.Logf("a cold storm body allocates %d times", got)
	if got > coldStormAllocs {
		t.Fatalf("a cold storm body allocates %d times, ratchet %d", got, coldStormAllocs)
	}
}

// BenchmarkFaultStormBody is one body of the standing benchmark's
// `fault-storm` workload — the options of bench/batch.go's newFaultStorm
// (full size), run as ReliabilitySweepWorkers(opt, 1, 1) — so the per-layer
// profile of the paper's own machinery under fail/repair storms is
// `go test -run '^$' -bench FaultStormBody -cpu 1 -cpuprofile cpu.prof .`
// (recipe and reference tables in docs/BENCHMARKS.md).
func BenchmarkFaultStormBody(b *testing.B) {
	b.ReportAllocs()
	var delivered int
	for i := 0; i < b.N; i++ {
		rows, err := ReliabilitySweepWorkers(faultStormBody, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		delivered = rows[len(rows)-1].Delivered
	}
	b.ReportMetric(float64(delivered), "delivered")
}

// BenchmarkRouterGridBody is one body of the standing benchmark's
// `router-grid` workload — the options of bench/batch.go's newRouterGrid
// (full size, seed 1), run as routerGridBody does — so the profile of every
// router under finite buffers, the oracle's table included, is
// `go test -run '^$' -bench RouterGridBody -cpu 1 -cpuprofile cpu.prof .`
// (recipe and reference tables in docs/BENCHMARKS.md).
func BenchmarkRouterGridBody(b *testing.B) {
	b.ReportAllocs()
	var delivered int
	for i := 0; i < b.N; i++ {
		var err error
		if delivered, err = routerGridBody(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(delivered), "delivered")
}

// routerGridOpen and routerGridClosed are the options of bench/batch.go's
// newRouterGrid at full size: its open-loop and closed-loop sweeps.
var (
	routerGridOpen = SaturationOptions{
		Dims: []int{8, 8}, Lambda: 1,
		Routers:  []string{"limited", "congested", "dor", "blind", "oracle"},
		Patterns: []string{"uniform", "transpose", "complement", "bitrev", "hotspot", "neighbor"},
		Rates:    []float64{0.5, 0.35, 0.2, 0.1, 0.05, 0.02},
		Process:  "bernoulli", LinkRate: 1, NodeCapacity: 8,
		Warmup: 16, Measure: 64, Drain: 32,
	}
	routerGridClosed = ClosedLoopOptions{
		Dims: []int{6, 6, 6}, Lambda: 1,
		Routers: []string{"limited", "congested"}, Patterns: []string{"uniform", "hotspot"},
		Windows:  []int{1, 2, 4, 8},
		LinkRate: 1, NodeCapacity: 4, FlightTimeout: 32, RetryBackoff: 4, Bubble: true,
		Warmup: 16, Measure: 64, Drain: 32,
	}
)

// routerGridBody runs one body of the router-grid workload on no pool and
// returns the deliveries of its last open and last closed-loop cell.
func routerGridBody() (int, error) {
	open, err := SaturationSweepWorkers(routerGridOpen, 1, 1)
	if err != nil {
		return 0, err
	}
	closed, err := ClosedLoopSweepWorkers(routerGridClosed, 2, 1)
	if err != nil {
		return 0, err
	}
	return open[len(open)-1].Delivered + closed[len(closed)-1].Delivered, nil
}

// coldRouterGridAllocs is TestColdRouterGridAllocs's ratchet (the body
// reads 180 with or without the race detector and at -cpu 2). Only ever
// lower it.
const coldRouterGridAllocs = 192

// TestColdRouterGridAllocs holds one cold body of the router-grid workload —
// 216 load cells over every router, each on a simulation built from empty —
// to the ratchet: a simulation's oracle cells share its one table, whose
// arena is allocated at the budget's capacity on first use, and the engine's
// flight lists are sized when it is built (400 when each oracle cell built a
// table of its own and those lists grew by append). The count is the least
// of two runs, since a collection ending inside a run counts the runtime's
// own allocations.
func TestColdRouterGridAllocs(t *testing.T) {
	got := uint64(math.MaxUint64)
	for range 2 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		delivered, err := routerGridBody()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if delivered == 0 {
			t.Fatal("the router-grid body delivered nothing")
		}
		got = min(got, after.Mallocs-before.Mallocs)
	}
	t.Logf("a cold router-grid body allocates %d times", got)
	if got > coldRouterGridAllocs {
		t.Fatalf("a cold router-grid body allocates %d times, ratchet %d", got, coldRouterGridAllocs)
	}
}
