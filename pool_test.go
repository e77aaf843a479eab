package ndmesh

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
	"ndmesh/internal/traffic"
)

// TestEnginePoolReuseByteIdentical is the pooling half of the determinism
// contract: a sweep served from warm, Reset-recycled simulations must
// produce byte-identical rows to a sweep on a private pool, and the pool's
// counters must show the reuse actually happened: every cell is one
// checkout, so a one-worker sweep builds one simulation and acquires it for
// every later cell, and a second sweep only acquires.
func TestEnginePoolReuseByteIdentical(t *testing.T) {
	opt := smallSaturation()
	plain, err := SaturationSweepWorkers(opt, 42, 1)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewEnginePool(0)
	opt.Pool = pool
	first, err := SaturationSweepWorkers(opt, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, first) {
		t.Fatal("pooled sweep rows differ from unpooled rows")
	}
	cells := uint64(len(opt.Patterns) * len(opt.Rates) * len(opt.Routers))
	s := pool.Stats()
	if s.Built != 1 || s.Acquired != cells-1 {
		t.Fatalf("first pooled sweep built %d and acquired %d simulations, want 1 and %d", s.Built, s.Acquired, cells-1)
	}
	if s.Idle != 1 {
		t.Fatalf("%d simulations idle after the sweep, want 1", s.Idle)
	}

	second, err := SaturationSweepWorkers(opt, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, second) {
		t.Fatal("warm-engine sweep rows differ from unpooled rows")
	}
	s2 := pool.Stats()
	if s2.Acquired-s.Acquired != cells {
		t.Fatalf("second pooled sweep acquired %d warm simulations, want %d", s2.Acquired-s.Acquired, cells)
	}
	if s2.Built != s.Built {
		t.Fatalf("second pooled sweep built %d fresh simulations, want 0 (all warm)", s2.Built-s.Built)
	}
	if err := pool.VerifyClean(); err != nil {
		t.Fatal(err)
	}
}

// routeSweepScenario is a meshsim-style batch: one 12x12 route under
// twelve fault plans that differ in seed, placement and recovery, so that
// some messages detour or fail and the results tell the plans apart.
func routeSweepScenario() (Config, Coord, Coord, []FaultPlan) {
	src, dst := Coord{1, 1}, Coord{10, 10}
	plans := make([]FaultPlan, 12)
	for i := range plans {
		plans[i] = FaultPlan{
			Faults: 4 + i%3, Interval: 1 + i%4, Start: 1,
			Clustered: i%2 == 1, RecoverAfter: 30 * (i % 3),
			Avoid: []Coord{src, dst}, Seed: uint64(i + 1),
		}
	}
	return Config{Dims: []int{12, 12}, Lambda: 2}, src, dst, plans
}

// TestRouteSweepMatchesFreshSimulations holds the route sweep, whose jobs
// run on warm Reset-recycled simulations, to a fresh NewSimulation +
// GenerateFaults + Route per plan, under every router and at one and two
// workers; and it fails a sweep whose results do not depend on the plan.
func TestRouteSweepMatchesFreshSimulations(t *testing.T) {
	cfg, src, dst, plans := routeSweepScenario()
	for _, router := range []string{"limited", "congested", "oracle", "blind", "dor"} {
		want := make([]RouteResult, len(plans))
		for i, plan := range plans {
			sim := MustSimulation(cfg)
			if err := sim.GenerateFaults(plan); err != nil {
				t.Fatal(err)
			}
			res, err := sim.Route(src, dst, router)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}
		if router == "limited" && !slices.ContainsFunc(want, func(r RouteResult) bool { return r != want[0] }) {
			t.Fatalf("every plan routes alike (%+v): the scenario cannot tell reuse from fresh", want[0])
		}
		for _, w := range []int{1, 2} {
			got, err := RouteSweepWorkers(cfg, src, dst, router, plans, w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, workers=%d:\n got %+v\nwant %+v", router, w, got, want)
			}
		}
	}
	if _, err := RouteSweepWorkers(cfg, src, Coord{12, 0}, "limited", plans, 2); err == nil {
		t.Error("a destination off the mesh was accepted")
	}
}

// TestEnginePoolLoadRun pins the pool through the single-cell entry point:
// a pooled LoadRun matches an unpooled one and leaves the engine back in
// the reservoir, clean.
func TestEnginePoolLoadRun(t *testing.T) {
	opt := LoadOptions{
		Dims: []int{6, 6}, Router: "limited", Pattern: "uniform",
		Rate: 0.2, Warmup: 16, Measure: 48, Drain: 64,
		NodeCapacity: 4, Seed: 7,
	}
	plain, err := LoadRun(opt)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewEnginePool(0)
	opt.Pool = pool
	for i := 0; i < 2; i++ {
		pt, err := LoadRun(opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, pt) {
			t.Fatalf("pooled LoadRun %d differs from unpooled", i)
		}
	}
	s := pool.Stats()
	if s.Built != 1 || s.Acquired != 1 {
		t.Fatalf("stats = %+v, want exactly one build then one warm acquire", s)
	}
	if err := pool.VerifyClean(); err != nil {
		t.Fatal(err)
	}
}

// TestEnginePoolMaxIdleCap pins the retention bound: returns past the
// per-key cap are dropped, not stacked, and a checkout pops what was
// retained before it builds.
func TestEnginePoolMaxIdleCap(t *testing.T) {
	pool := NewEnginePool(1)
	get := func() *Simulation {
		t.Helper()
		sim, err := pool.get([]int{4, 4}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	a, b := get(), get()
	if a == b {
		t.Fatal("two checkouts returned one simulation")
	}
	pool.put(a)
	pool.put(b)
	s := pool.Stats()
	if s.Built != 2 || s.Released != 1 || s.Dropped != 1 || s.Idle != 1 {
		t.Fatalf("stats = %+v, want two builds, one release, one drop, one idle", s)
	}
	if got := get(); got != a {
		t.Fatal("get returned a simulation that was never retained")
	}
	if got := get(); got == a || got == b {
		t.Fatal("get from a drained key returned a simulation it had handed out")
	}
	if s := pool.Stats(); s.Acquired != 1 || s.Built != 3 {
		t.Fatalf("stats = %+v, want one warm checkout, then a build", s)
	}
}

// collectEmit returns an Emit hook that stores each row at its index,
// failing unless the rows arrive in index order (a repeat included), and
// the slice it fills. It takes no lock: the calls come one at a time, and
// -race fails two that overlap.
func collectEmit[Row any](t *testing.T, n int) (func(int, Row), []Row) {
	got := make([]Row, n)
	next := 0
	return func(i int, row Row) {
		if i != next {
			t.Errorf("row %d emitted where row %d was due", i, next)
		}
		next = i + 1
		got[i] = row
	}, got
}

// TestSweepEmitMatchesRows certifies the streaming hook's contract: the
// rows delivered through Emit, in index order, are exactly the slice the
// batch call returns — for every load sweep, at a parallel worker count
// so completion order and index order genuinely diverge (a row never
// emitted stays zero and differs).
func TestSweepEmitMatchesRows(t *testing.T) {
	t.Run("saturation", func(t *testing.T) {
		opt := smallSaturation()
		var got []SaturationRow
		opt.Emit, got = collectEmit[SaturationRow](t, len(opt.Patterns)*len(opt.Rates)*len(opt.Routers))
		rows, err := SaturationSweepWorkers(opt, 42, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, got) {
			t.Fatal("emitted rows differ from returned rows")
		}
	})
	t.Run("congestion", func(t *testing.T) {
		opt := smallCongestionShift()
		var got []CongestionShiftRow
		opt.Emit, got = collectEmit[CongestionShiftRow](t, len(opt.Patterns)*len(opt.Rates))
		rows, _, err := CongestionShiftSweepWorkers(opt, 42, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, got) {
			t.Fatal("emitted rows differ from returned rows")
		}
	})
	t.Run("closedloop", func(t *testing.T) {
		opt := DefaultClosedLoop()
		opt.Dims = []int{4, 4}
		opt.Windows = []int{1, 2, 4}
		opt.Warmup, opt.Measure, opt.Drain = 16, 32, 64
		var got []ClosedLoopRow
		opt.Emit, got = collectEmit[ClosedLoopRow](t, len(opt.Patterns)*len(opt.Windows)*len(opt.Routers))
		rows, err := ClosedLoopSweepWorkers(opt, 42, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, got) {
			t.Fatal("emitted rows differ from returned rows")
		}
	})
	t.Run("gridlock", func(t *testing.T) {
		opt := smallGridlock()
		var got []GridlockRow
		opt.Emit, got = collectEmit[GridlockRow](t,
			len(opt.Patterns)*len(opt.Windows)*len(opt.Capacities)*len(opt.FaultCounts)*len(opt.Mechanisms))
		rows, err := GridlockSweepWorkers(opt, 42, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, got) {
			t.Fatal("emitted rows differ from returned rows")
		}
	})
	t.Run("reliability", func(t *testing.T) {
		opt := DefaultReliability()
		opt.Dims = []int{4, 4}
		opt.FaultRates = []float64{0, 0.01}
		opt.Trials = 4
		opt.Warmup, opt.Measure, opt.Drain = 16, 32, 64
		var got []ReliabilityRow
		opt.Emit, got = collectEmit[ReliabilityRow](t, len(opt.Patterns)*len(opt.FaultRates)*len(opt.Routers))
		rows, err := ReliabilitySweepWorkers(opt, 42, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, got) {
			t.Fatal("emitted rows differ from returned rows")
		}
	})
}

// TestSweepCancel pins the cooperative-cancellation contract: a Cancel
// hook that trips mid-sweep aborts with ErrCanceled, and — the part the
// daemon depends on — every pooled simulation still comes back to the
// reservoir clean, because the abort path runs the same deferred engine
// cleanup as a completed cell. The sweeps share one pool, as meshd's jobs
// do.
func TestSweepCancel(t *testing.T) {
	rec := &traffic.Trace{}
	if _, err := LoadRun(LoadOptions{
		Dims: []int{6, 6}, Router: "limited", Pattern: "uniform", Rate: 0.2,
		Warmup: 16, Measure: 96, Drain: 64, Seed: 7, Record: rec,
	}); err != nil {
		t.Fatal(err)
	}
	pool := NewEnginePool(0)
	for _, sweep := range []struct {
		name string
		run  func(cancel func() bool, workers int) error
	}{
		{"saturation", func(cancel func() bool, workers int) error {
			opt := smallSaturation()
			opt.Pool, opt.Cancel = pool, cancel
			_, err := SaturationSweepWorkers(opt, 42, workers)
			return err
		}},
		{"congestion", func(cancel func() bool, workers int) error {
			opt := smallCongestionShift()
			opt.Pool, opt.Cancel = pool, cancel
			_, _, err := CongestionShiftSweepWorkers(opt, 42, workers)
			return err
		}},
		{"gridlock", func(cancel func() bool, workers int) error {
			opt := smallGridlock()
			opt.Pool, opt.Cancel = pool, cancel
			_, err := GridlockSweepWorkers(opt, 42, workers)
			return err
		}},
		{"replay-compare", func(cancel func() bool, workers int) error {
			_, err := ReplayCompareSweepWorkers(ReplayCompareOptions{
				Routers: []string{"limited", "congested", "dor"}, Replay: rec, Pool: pool, Cancel: cancel,
			}, 42, workers)
			return err
		}},
	} {
		t.Run(sweep.name, func(t *testing.T) {
			before := pool.Stats()
			var polls atomic.Int64
			// Let the first cell start, then trip: the abort exercises both
			// the pre-cell check and the in-cell step poll.
			err := sweep.run(func() bool { return polls.Add(1) > 2 }, 2)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if s := pool.Stats(); s.Acquired+s.Built == before.Acquired+before.Built {
				t.Fatal("the sweep drew no simulation from its Pool")
			}
			if err := pool.VerifyClean(); err != nil {
				t.Fatal(err)
			}
			// Canceled before anything ran: still ErrCanceled, still clean.
			if err := sweep.run(func() bool { return true }, 1); !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if err := pool.VerifyClean(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLoadRunCancel covers the single-cell entry: a canceled LoadRun
// reports ErrCanceled and releases a clean engine.
func TestLoadRunCancel(t *testing.T) {
	pool := NewEnginePool(0)
	_, err := LoadRun(LoadOptions{
		Dims: []int{6, 6}, Router: "limited", Pattern: "uniform",
		Rate: 0.2, Warmup: 16, Measure: 48, Drain: 64, Seed: 7,
		Pool:   pool,
		Cancel: func() bool { return true },
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if err := pool.VerifyClean(); err != nil {
		t.Fatal(err)
	}
}

// cellAllocs is one case of testdata/warm_load_cell_allocs.json.
type cellAllocs struct {
	Case   string `json:"case"`
	Allocs int    `json:"allocs"`
}

// TestWarmLoadCellAllocs runs each case's load cell twice on one
// EnginePool and holds what the second, identical run allocates to at most
// the count committed in testdata/warm_load_cell_allocs.json. The cases are
// an open-loop 8x8 cell at capacity 8, the same with flight timeouts (the
// retry source), a closed-loop 6x6x6 bubble cell with retry, the
// fault-storm cell (the workload's 16x16 λ=2 options at fault rate 0.2), an
// oracle cell, an 8x8 cell under a fixed-count fault overlay, a replay of a
// trace that carries faults and the overlay cell recording into one reused
// trace. A pooled Simulation keeps everything a warm cell needs: its
// engine, flights, headers, fault schedule and event log, and its load
// run's collector, rng streams, sources (the trace player and recorder
// included), patterns and fault-placement scratch, and the oracle
// whose table the oracle cell refills (the mesh version moved by the Reset
// drops its fields); a warm cell of each case allocates nothing.
// The cell's stream is built outside the measured closure (loadPoint
// leaves it as it was), so each count is the cell's alone. Every warm run is
// an identical rerun, and the count is the least of three: a garbage
// collection that ends inside one also counts the runtime's own allocations
// (a sudog, a timer slot; about 1 in 600 storm cells), which a regression in
// the cell cannot hide behind, since it allocates in every rerun. The
// fixture may only be regenerated, with -update-fixtures, from a tree that
// allocates less.
func TestWarmLoadCellAllocs(t *testing.T) {
	open := SaturationOptions{
		Dims: []int{8, 8}, Lambda: 1, Process: "bernoulli",
		Warmup: 16, Measure: 64, Drain: 32, LinkRate: 1, NodeCapacity: 8,
	}
	retry := open
	retry.FlightTimeout, retry.RetryBackoff = 12, 4
	closed := ClosedLoopOptions{
		Dims: []int{6, 6, 6}, Lambda: 1,
		Warmup: 16, Measure: 64, Drain: 32,
		LinkRate: 1, NodeCapacity: 4, FlightTimeout: 32, RetryBackoff: 4, Bubble: true,
	}
	storm := ReliabilityOptions{
		Dims: []int{16, 16}, Lambda: 2, FaultRate: 0.2, FaultModel: "bernoulli", FaultRepair: 24,
		Process: "bernoulli", Warmup: 64, Measure: 512, Drain: 128,
		LinkRate: 1, FlightTimeout: 48, RetryBackoff: 4, GridlockWindow: 16,
	}
	openTranspose := cellAt(open, "transpose", 0.35, 0, "limited")
	retryTranspose := cellAt(retry, "transpose", 0.5, 0, "limited")
	closedHotspot := cellAt(closed, "hotspot", 0, 8, "congested")
	stormUniform := cellAt(storm, "uniform", 0.02, 0, "limited")
	oracleUniform := cellAt(open, "uniform", 0.2, 0, "oracle")
	overlay := open
	overlay.Faults = 4
	overlayUniform := cellAt(overlay, "uniform", 0.2, 0, "limited")
	// The replayed trace is recorded once, outside the measured cells.
	replay := LoadOptions{Router: "limited", Replay: &traffic.Trace{}}
	recorded := overlayUniform
	recorded.Record, recorded.Seed = replay.Replay, 5
	if _, err := LoadRun(recorded); err != nil {
		t.Fatal(err)
	}
	if err := replay.check(); err != nil {
		t.Fatal(err)
	}
	// The recording cell records into one trace, reused run after run.
	recording := overlayUniform
	recording.Record = &traffic.Trace{}
	r := rng.New(11).Split()
	// Each cell must do what its case names, or its count shows nothing.
	cases := []struct {
		name string
		cell func(p *EnginePool) (traffic.LoadPoint, error)
		does func(pt traffic.LoadPoint) bool
	}{
		{"open/8x8/limited/transpose/capacity8", func(p *EnginePool) (traffic.LoadPoint, error) {
			return loadPoint(p, &openTranspose, r)
		}, func(pt traffic.LoadPoint) bool { return pt.Dropped > 0 && pt.Delivered > 0 }},
		{"open-retry/8x8/limited/transpose/capacity8", func(p *EnginePool) (traffic.LoadPoint, error) {
			return loadPoint(p, &retryTranspose, r)
		}, func(pt traffic.LoadPoint) bool { return pt.TimedOut > 0 && pt.Delivered > 0 }},
		{"closed/6x6x6/congested/hotspot/bubble-retry", func(p *EnginePool) (traffic.LoadPoint, error) {
			return loadPoint(p, &closedHotspot, r)
		}, func(pt traffic.LoadPoint) bool { return pt.Retried > 0 && pt.Delivered > 0 }},
		{"storm/16x16/lambda2/fault0.2", func(p *EnginePool) (traffic.LoadPoint, error) {
			return loadPoint(p, &stormUniform, r)
		}, func(pt traffic.LoadPoint) bool { return pt.Failed > 0 && pt.Delivered > 0 }},
		{"oracle/8x8/uniform/capacity8", func(p *EnginePool) (traffic.LoadPoint, error) {
			return loadPoint(p, &oracleUniform, r)
		}, func(pt traffic.LoadPoint) bool { return pt.Delivered > 0 }},
		{"overlay/8x8/limited/uniform/faults4", func(p *EnginePool) (traffic.LoadPoint, error) {
			return loadPoint(p, &overlayUniform, r)
		}, func(pt traffic.LoadPoint) bool { return pt.Failed == 4 && pt.Delivered > 0 }},
		{"replay/8x8/limited/uniform/faults4", func(p *EnginePool) (traffic.LoadPoint, error) {
			return loadPoint(p, &replay, r)
		}, func(pt traffic.LoadPoint) bool { return pt.Failed == 4 && pt.Delivered > 0 }},
		{"record/8x8/limited/uniform/faults4", func(p *EnginePool) (traffic.LoadPoint, error) {
			return loadPoint(p, &recording, r)
		}, func(pt traffic.LoadPoint) bool {
			return pt.Failed == 4 && pt.Delivered > 0 && recording.Record.Offers() > 0 && len(recording.Record.Faults) > 0
		}},
	}
	var got []cellAllocs
	for _, c := range cases {
		pool := NewEnginePool(0)
		cell := func() {
			pt, err := c.cell(pool)
			if err != nil {
				t.Fatal(err)
			}
			if !c.does(pt) {
				t.Fatalf("%s: the cell does not do what the case names: %+v", c.name, pt)
			}
		}
		// The first cell is the cold one that builds the simulation.
		cell()
		warm := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cell()
			runtime.ReadMemStats(&after)
			warm = min(warm, after.Mallocs-before.Mallocs)
		}
		got = append(got, cellAllocs{c.name, int(warm)})
	}

	const fixture = "warm_load_cell_allocs.json"
	var want []cellAllocs
	loadJSONFixture(t, fixture, got, &want)
	if len(want) != len(got) {
		t.Fatalf("%s holds %d cases, the test runs %d", fixture, len(want), len(got))
	}
	for i, g := range got {
		if g.Case != want[i].Case || g.Allocs > want[i].Allocs {
			t.Errorf("case %d allocates %+v, the fixture allows %+v", i, g, want[i])
		}
	}
}

// TestPoolSharedAcrossSweepKinds: one pool serves a contention cell and a
// protocol job in turn, so the simulation an E19 cell leaves behind (past
// saturation: backlog flights, contention on) serves E15's replays, and then
// the next E19 cell. Every row and route equals its run on a private pool,
// and the shared pool builds one simulation for all of them.
func TestPoolSharedAcrossSweepKinds(t *testing.T) {
	dims := []int{10, 10}
	sat := SaturationOptions{
		Dims: dims, Lambda: 2, Process: "bernoulli",
		Routers: []string{"limited"}, Patterns: []string{"transpose"}, Rates: []float64{0.5},
		Warmup: 16, Measure: 48, Drain: 8, LinkRate: 1, NodeCapacity: 4, FlightTimeout: 24,
	}
	cell := func(p *EnginePool) []SaturationRow {
		t.Helper()
		o := sat
		o.Pool = p
		rows, err := SaturationSweepWorkers(o, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	// E15's job: one drawn scenario, replayed under each router.
	shape := meshtest.MustShape(dims...)
	replays := func(p *EnginePool) []RouteResult {
		t.Helper()
		r := rng.New(7)
		var out []RouteResult
		for range 4 {
			src, dst, err := traffic.DrawLongHaulPair(shape, r)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := fault.Generate(shape, 4, fault.Options{
				Interval: 4, Start: 2, Exclude: []grid.NodeID{src, dst}, ExcludeRadius: 1, MinSpacing: 4,
			}, r)
			if err != nil {
				t.Fatal(err)
			}
			for _, router := range []string{"limited", "oracle", "blind"} {
				res, err := p.replay(dims, sat.Lambda, sched, src, dst, router)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, res)
			}
		}
		return out
	}

	shared := NewEnginePool(0)
	first := cell(shared)
	if first[0].Unfinished == 0 {
		t.Fatal("the E19 cell left no backlog; the test lost its teeth")
	}
	got := replays(shared)
	again := cell(shared)
	if want := cell(nil); !reflect.DeepEqual(first, want) || !reflect.DeepEqual(again, want) {
		t.Errorf("the E19 rows on the shared pool differ from a private pool's:\n first %+v\n again %+v\n want  %+v", first, again, want)
	}
	if want := replays(NewEnginePool(0)); !reflect.DeepEqual(got, want) {
		t.Errorf("E15's replays after an E19 cell differ from a private pool's:\n got  %+v\n want %+v", got, want)
	}
	if st := shared.Stats(); st.Built != 1 {
		t.Errorf("the shared pool built %d simulations, want the one every job reused: %+v", st.Built, st)
	}
	if err := shared.VerifyClean(); err != nil {
		t.Error(err)
	}
}

// TestSaturatedRetryQueueTrimmed: a saturated 32x32 cell with flight
// timeouts ends with more retries queued than the mesh has nodes, and the
// simulation it hands back to the pool keeps no more queue than that
// (put's Reset trims it) — yet a warm rerun of the cell is unchanged.
func TestSaturatedRetryQueueTrimmed(t *testing.T) {
	opt := SaturationOptions{
		Dims: []int{32, 32}, Lambda: 1, Process: "bernoulli",
		Warmup: 16, Measure: 128, Drain: 32, LinkRate: 1, NodeCapacity: 8,
		FlightTimeout: 16, RetryBackoff: 4,
	}
	const nodes = 32 * 32
	pool := NewEnginePool(0)
	r := rng.New(3)
	c := cellAt(opt, "transpose", 0.2, 0, "limited")
	cell := func() traffic.LoadPoint {
		pt, err := loadPoint(pool, &c, r)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	cold := cell()
	if cold.RetryDropped <= nodes {
		t.Fatalf("the cell ended with %d retries queued, not past the %d nodes; the test lost its teeth", cold.RetryDropped, nodes)
	}
	sim, err := pool.get(opt.Dims, opt.Lambda)
	if err != nil {
		t.Fatal(err)
	}
	// The queue's capacity is what the source holds on to between runs; no
	// production path reads it, so it is read here by field name.
	if got := reflect.ValueOf(&sim.load.retry).Elem().FieldByName("pending").Cap(); got > nodes {
		t.Errorf("the pooled simulation retains a retry queue of capacity %d, want at most the %d nodes", got, nodes)
	}
	pool.put(sim)
	if warm := cell(); !reflect.DeepEqual(warm, cold) {
		t.Errorf("the warm rerun differs from the cold cell:\n cold %+v\n warm %+v", cold, warm)
	}
}

// TestPooledOracleNotStale: a simulation's one oracle serves every oracle
// run on it, so no field an earlier run computed may reach a later one. An
// oracle cell under a fault storm, then a fault-free oracle cell and a
// different storm, all on one warm simulation, each equal the same cell on
// a fresh pool; and Simulation.Route after a Reset to another fault
// schedule equals a fresh simulation's route.
func TestPooledOracleNotStale(t *testing.T) {
	free := SaturationOptions{
		Dims: []int{8, 8}, Lambda: 1, Process: "bernoulli",
		Warmup: 16, Measure: 64, Drain: 32, LinkRate: 1, NodeCapacity: 8,
	}
	storm := free
	storm.FaultRate, storm.FaultModel, storm.FaultRepair = 0.1, "bernoulli", 24
	other := storm
	other.FaultRate, other.FaultRepair = 0.2, 12
	r := rng.New(5).Split()
	warm := NewEnginePool(0)
	var points []traffic.LoadPoint
	for _, opt := range []SaturationOptions{storm, free, other} {
		c := cellAt(opt, "uniform", 0.2, 0, "oracle")
		got, err := loadPoint(warm, &c, r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := loadPoint(NewEnginePool(0), &c, r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("fault rate %g: the warm oracle cell differs from a fresh one:\n warm  %+v\n fresh %+v", opt.FaultRate, got, want)
		}
		points = append(points, got)
	}
	if built := warm.Stats().Built; built != 1 {
		t.Fatalf("the warm pool built %d simulations, want the one every cell shares", built)
	}
	if points[0].Failed == 0 || points[2].Failed == 0 || points[0] == points[2] {
		t.Fatalf("the two storms do not fault the mesh differently: %+v, %+v", points[0], points[2])
	}

	// Two walls across x = 4, y from lo to hi, that leave a route around
	// their opposite ends.
	wall := func(sim *Simulation, lo, hi int) {
		t.Helper()
		for y := lo; y <= hi; y++ {
			if err := sim.ScheduleFault(1, C(4, y)); err != nil {
				t.Fatal(err)
			}
		}
	}
	route := func(sim *Simulation) RouteResult {
		t.Helper()
		res, err := sim.Route(C(0, 4), C(7, 3), "oracle")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sim := MustSimulation(Config{Dims: []int{8, 8}})
	wall(sim, 0, 4)
	first := route(sim)
	sim.Reset()
	wall(sim, 2, 7)
	fresh := MustSimulation(Config{Dims: []int{8, 8}})
	wall(fresh, 2, 7)
	if got, want := route(sim), route(fresh); got != want || !got.Arrived || got == first {
		t.Errorf("after a Reset to the other wall the oracle routes %+v, a fresh simulation %+v (before the Reset %+v)", got, want, first)
	}
}

// TestPooledOracleRetained states what a pooled simulation keeps of its
// oracle once it has served an oracle cell: an arena of at most the
// budget's min(n, 2^20/n)·n entries (4 MiB of int32 at most), and a row and
// a queue of n. A simulation that served no oracle cell keeps no table.
// Nothing reads these capacities, so they are read here by field name.
func TestPooledOracleRetained(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {32, 32}} {
		opt := SaturationOptions{
			Dims: dims, Lambda: 1, Process: "bernoulli",
			Warmup: 8, Measure: 32, Drain: 16, LinkRate: 1, NodeCapacity: 8,
		}
		n := dims[0] * dims[1]
		pool := NewEnginePool(0)
		r := rng.New(9)
		caps := func(router string) (arena, row, queue int) {
			t.Helper()
			c := cellAt(opt, "uniform", 0.05, 0, router)
			if _, err := loadPoint(pool, &c, r); err != nil {
				t.Fatal(err)
			}
			sim, err := pool.get(dims, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.put(sim)
			o := reflect.ValueOf(&sim.oracle).Elem()
			return o.FieldByName("dist").Cap(), o.FieldByName("row").Cap(), o.FieldByName("queue").Cap()
		}
		if arena, row, queue := caps("limited"); arena+row+queue != 0 {
			t.Errorf("%v: a simulation that served no oracle cell keeps an oracle of %d+%d+%d entries", dims, arena, row, queue)
		}
		arena, row, queue := caps("oracle")
		if budget := min(n, (1<<20)/n) * n; arena == 0 || arena > budget || row != n || queue != n {
			t.Errorf("%v: the pooled oracle keeps an arena of %d, a row of %d and a queue of %d; want at most %d, and %d each", dims, arena, row, queue, budget, n)
		}
	}
}

// oracleRouteCeiling is TestOracleRouteBytes's ceiling: twice the 28,800 B
// a one-shot oracle route allocated before the oracle kept a table (4,220,080
// B while the arena took the whole 4 MiB budget on its first field).
const oracleRouteCeiling = 2 * 28_800

// TestOracleRouteBytes: one oracle route on a fresh 32x32 simulation pays
// for the fields it asks for, not for the table's whole budget. The bytes
// are the route's alone (the simulation is built before the reading).
func TestOracleRouteBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves the heap readings")
	}
	sim := MustSimulation(Config{Dims: []int{32, 32}})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := sim.Route(C(0, 0), C(31, 31), "oracle")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Arrived {
		t.Fatalf("the oracle route did not arrive: %+v", res)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("one oracle route on a fresh 32x32 allocates %d bytes", bytes)
	if bytes > oracleRouteCeiling {
		t.Fatalf("one oracle route on a fresh 32x32 allocates %d bytes, ceiling %d", bytes, oracleRouteCeiling)
	}
}

// pooledRetainedCeiling is TestPooledRetainedBytes's ceiling: the bytes the
// two pooled simulations keep, as measured (2,423,152 at -cpu 1 and 2;
// 2,304,368 while chunks held a fixed number of elements and the link lists
// grew by append), plus 10%.
const pooledRetainedCeiling = 2_665_500

// TestPooledRetainedBytes measures what recycling keeps between cells: a
// pool holding the 16x16 simulation a fault-storm body ran its storms on and
// the 32x32 one a step-saturated cell ran on keeps every list, flight and
// chunk they grew. The reading is the live heap (the least of four
// collections) with both simulations put back, minus the same reading taken
// before the pool was built, and it must stay under the ceiling.
func TestPooledRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves the heap readings")
	}
	before := liveHeap()
	pool := NewEnginePool(0)
	storm := faultStormBody
	storm.Pool = pool
	if _, err := ReliabilitySweepWorkers(storm, 1, 1); err != nil {
		t.Fatal(err)
	}
	sat := stepSaturatedBody
	sat.Pool = pool
	if _, err := LoadRun(sat); err != nil {
		t.Fatal(err)
	}
	if idle := pool.Stats().Idle; idle != 2 {
		t.Fatalf("the pool holds %d idle simulations, want 2", idle)
	}
	kept := liveHeap() - before
	runtime.KeepAlive(pool)
	t.Logf("two pooled simulations keep %d bytes", kept)
	if kept > pooledRetainedCeiling {
		t.Fatalf("two pooled simulations keep %d bytes, ceiling %d", kept, pooledRetainedCeiling)
	}
}

// liveHeap returns the least heap in use read after each of four
// collections: a collection frees what the program dropped, and the least
// reading leaves out what a background goroutine held at that moment.
func liveHeap() int64 {
	least := int64(math.MaxInt64)
	for range 4 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		least = min(least, int64(ms.HeapAlloc))
	}
	return least
}
