package ndmesh

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ndmesh/internal/engine"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
	"ndmesh/internal/traffic"
)

// smallClosedLoop is the quick E21 grid used by the determinism and golden
// tests: two patterns, three windows, one router on a 6x6 mesh.
func smallClosedLoop() ClosedLoopOptions {
	opt := DefaultClosedLoop()
	opt.Dims = []int{6, 6}
	opt.Patterns = []string{"uniform", "transpose"}
	opt.Windows = []int{1, 4, 16}
	opt.Warmup, opt.Measure, opt.Drain = 16, 48, 64
	return opt
}

// TestGoldenClosedLoopSweep pins one E21 run byte-for-byte at a fixed
// seed: the rng split discipline, the closed loop's draw/retry/release
// accounting, the contention arbitration and the router's decisions all
// feed these strings. If a deliberate change to any of those is made,
// recapture in the same commit and say so.
func TestGoldenClosedLoopSweep(t *testing.T) {
	rows, err := ClosedLoopSweepWorkers(smallClosedLoop(), 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenClosedLoopRows
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if got := fmt.Sprintf("%+v", r); got != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// TestClosedLoopCurveShape is E21's behavioral acceptance: delivered
// throughput rises with the window and saturates, latency grows with the
// window (Little's law: a bigger standing population must queue), and a
// closed loop never drops.
func TestClosedLoopCurveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop curve run is a few hundred thousand flight-steps")
	}
	opt := DefaultClosedLoop()
	opt.Patterns = []string{"uniform"}
	rows, err := ClosedLoopSweepWorkers(opt, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Delivered == 0 {
			t.Fatalf("window %d delivered nothing", r.Window)
		}
		if i == 0 {
			continue
		}
		prev := rows[i-1]
		if r.AcceptedRate < prev.AcceptedRate*0.98 {
			t.Errorf("throughput fell with window: %.3f@w=%d < %.3f@w=%d",
				r.AcceptedRate, r.Window, prev.AcceptedRate, prev.Window)
		}
		if r.LatMean <= prev.LatMean {
			t.Errorf("latency not growing with window: %.2f@w=%d <= %.2f@w=%d",
				r.LatMean, r.Window, prev.LatMean, prev.Window)
		}
	}
	// Saturation: the last window doubling buys almost no throughput.
	last, prev := rows[len(rows)-1], rows[len(rows)-2]
	if ratio := last.AcceptedRate / prev.AcceptedRate; ratio > 1.15 {
		t.Errorf("no saturation: accepted %.3f@w=%d vs %.3f@w=%d",
			last.AcceptedRate, last.Window, prev.AcceptedRate, prev.Window)
	}
}

// TestClosedLoopConservation steps a closed-loop run by hand and checks
// the bookkeeping every step: no node ever has more flights in the engine
// than its window, and injected == delivered + unreachable + lost + the
// engine's active flight population.
func TestClosedLoopConservation(t *testing.T) {
	sim := MustSimulation(Config{Dims: []int{8, 8}})
	if err := sim.GenerateFaults(FaultPlan{Faults: 3, Interval: 12, Start: 4, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	eng := sim.engine
	// Finite buffers so admission refusals exercise the defer-and-retry
	// path (capacity must exceed the window, or the initial burst fills
	// every buffer and the mesh gridlocks from step 0); faults so terminal
	// outcomes other than Delivered release too.
	eng.EnableContention(engine.ContentionConfig{LinkRate: 1, NodeCapacity: 5})
	defer eng.DisableContention()
	shape := sim.shape
	pat, err := traffic.ByName(shape, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	const window = 3
	cl := traffic.NewClosedLoop(shape, pat, window, rng.New(5))
	fab := sim.mesh

	injected, delivered, unreachable, lost := 0, 0, 0, 0
	outstanding := make([]int, shape.NumNodes())
	emit := func(src, dst grid.NodeID) bool {
		if fab.Status(src) != mesh.Enabled || !eng.Admit(src) {
			return false
		}
		if _, err := eng.Inject(src, dst, route.Limited{}); err != nil {
			t.Fatal(err)
		}
		injected++
		return true
	}
	for step := 0; step < 96; step++ {
		cl.Step(emit)
		eng.Step()
		eng.DetachDone(func(fl *engine.Flight) {
			switch {
			case fl.Msg.Arrived:
				delivered++
			case fl.Msg.Unreachable:
				unreachable++
			case fl.Msg.Lost:
				lost++
			default:
				t.Fatalf("step %d: detached flight in non-terminal state", step)
			}
			cl.Release(fl.Msg.Src)
		})
		clear(outstanding)
		for _, fl := range eng.Flights() {
			if outstanding[fl.Msg.Src]++; outstanding[fl.Msg.Src] > window {
				t.Fatalf("step %d: node %d has more than %d flights in the engine", step, fl.Msg.Src, window)
			}
		}
		if inFlight := len(eng.Flights()); injected != delivered+unreachable+lost+inFlight {
			t.Fatalf("step %d: conservation broken: injected %d != delivered %d + unreachable %d + lost %d + in-flight %d",
				step, injected, delivered, unreachable, lost, inFlight)
		}
	}
	if delivered == 0 {
		t.Fatal("run delivered nothing; the test lost its teeth")
	}
	if unreachable+lost == 0 {
		t.Log("note: no non-delivered terminals occurred; fault-release path not exercised this seed")
	}
}

// TestClosedLoopStepAllocFree extends the hot-path allocation guarantee to
// the closed-loop workload: once the windows are primed and the flight
// free list is warm, a full closed-loop step — draws, injections,
// contention step, harvest with slot release — allocates nothing.
func TestClosedLoopStepAllocFree(t *testing.T) {
	sim := MustSimulation(Config{Dims: []int{8, 8}})
	eng := sim.engine
	eng.EnableContention(engine.ContentionConfig{LinkRate: 1})
	defer eng.DisableContention()
	shape := sim.shape
	pat, err := traffic.ByName(shape, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	cl := traffic.NewClosedLoop(shape, pat, 4, rng.New(1))
	emit := func(src, dst grid.NodeID) bool {
		if !eng.Admit(src) {
			return false
		}
		if _, err := eng.Inject(src, dst, route.Limited{}); err != nil {
			t.Fatal(err)
		}
		return true
	}
	release := func(fl *engine.Flight) { cl.Release(fl.Msg.Src) }
	step := func() {
		cl.Step(emit)
		eng.Step()
		eng.DetachDone(release)
	}
	for i := 0; i < 256; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(300, step); allocs != 0 {
		t.Errorf("closed-loop steady-state step allocates %.1f/op, want 0", allocs)
	}
}

// TestEscapeClosedLoopStepAllocFree pins the PR's steady-state allocation
// guarantee with every escape mechanism live: tight buffers in the gridlock
// regime, flights timing out, the closed loop re-arming slots under
// jittered backoff, bubble admission gating injection and the detector
// latching and unlatching — a full step of all that allocates nothing once
// the free lists are warm.
func TestEscapeClosedLoopStepAllocFree(t *testing.T) {
	sim := MustSimulation(Config{Dims: []int{8, 8}})
	eng := sim.engine
	eng.EnableContention(engine.ContentionConfig{
		LinkRate: 1, NodeCapacity: 3,
		FlightTimeout: 4, GridlockWindow: 4, Bubble: true,
	})
	defer eng.DisableContention()
	shape := sim.shape
	pat, err := traffic.ByName(shape, "transpose")
	if err != nil {
		t.Fatal(err)
	}
	cl := traffic.NewClosedLoop(shape, pat, 4, rng.New(1))
	cl.ConfigureRetry(2)
	emit := func(src, dst grid.NodeID) bool {
		if !eng.Admit(src) {
			return false
		}
		if _, err := eng.Inject(src, dst, route.Limited{}); err != nil {
			t.Fatal(err)
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
	for i := 0; i < 256; i++ {
		step()
	}
	if retried == 0 {
		t.Fatal("no retries after warmup; the escape path is not being exercised")
	}
	if allocs := testing.AllocsPerRun(300, step); allocs != 0 {
		t.Errorf("escape-mechanism steady-state step allocates %.1f/op, want 0", allocs)
	}
}

// TestTraceRecordReplayIdentical is the trace subsystem's acceptance
// criterion: a recorded run — open-loop under faults, closed-loop, and
// either under flight timeouts — replays through the binary format to a
// byte-identical LoadPoint, its Retried count included. The one exception
// is an open loop's RetryDropped: the retries still pending when injection
// closed were never offered, so no trace carries them and a replay
// reports 0.
func TestTraceRecordReplayIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  LoadOptions
	}{
		{"open-loop-faults", LoadOptions{
			Dims: []int{6, 6}, Router: "limited", Pattern: "uniform",
			Rate: 0.2, Warmup: 16, Measure: 48, Drain: 48,
			NodeCapacity: 4, Faults: 3, FaultInterval: 10, Seed: 11,
		}},
		{"closed-loop", LoadOptions{
			Dims: []int{6, 6}, Router: "limited", Pattern: "transpose",
			Window: 4, Warmup: 16, Measure: 48, Drain: 48,
			NodeCapacity: 4, Seed: 11,
		}},
		{"closed-loop-timeout", LoadOptions{
			Dims: []int{6, 6}, Router: "limited", Pattern: "transpose",
			Window: 4, Warmup: 16, Measure: 48, Drain: 48,
			NodeCapacity: 2, FlightTimeout: 6, RetryBackoff: 2, Seed: 11,
		}},
		{"open-loop-timeout", LoadOptions{
			Dims: []int{6, 6}, Router: "limited", Pattern: "transpose",
			Rate: 0.4, Warmup: 16, Measure: 48, Drain: 48,
			NodeCapacity: 2, FlightTimeout: 6, RetryBackoff: 2, Seed: 11,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Record = &traffic.Trace{}
			live, err := LoadRun(opt)
			if err != nil {
				t.Fatal(err)
			}
			if opt.FlightTimeout > 0 && live.Retried == 0 {
				t.Fatal("the origin run retried nothing; the case lost its teeth")
			}
			// Round-trip the trace through its binary encoding, then replay
			// with only the engine configuration carried over.
			tr, err := traffic.UnmarshalTrace(opt.Record.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			// Only the router is carried over: the engine configuration
			// (capacity, link rate, lambda) must be inherited from the
			// trace itself.
			replayed, err := LoadRun(LoadOptions{Router: tc.opt.Router, Replay: tr})
			if err != nil {
				t.Fatal(err)
			}
			if replayed.RetryDropped != 0 {
				t.Errorf("replay reports %d retries dropped; a trace carries none", replayed.RetryDropped)
			}
			live.RetryDropped = 0
			if !reflect.DeepEqual(replayed, live) {
				t.Errorf("replay diverged from live run:\n live   %+v\n replay %+v", live, replayed)
			}
		})
	}
}

// TestTraceReRecordKeepsFaults pins re-recording: recording while
// replaying must carry the origin's fault schedule into the new trace, so
// a re-recorded copy still replays byte-identically.
func TestTraceReRecordKeepsFaults(t *testing.T) {
	orig := &traffic.Trace{}
	live, err := LoadRun(LoadOptions{
		Dims: []int{6, 6}, Router: "limited", Pattern: "uniform",
		Rate: 0.2, Warmup: 16, Measure: 48, Drain: 48,
		NodeCapacity: 4, Faults: 3, FaultInterval: 10, Seed: 11, Record: orig,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.Faults) == 0 {
		t.Fatal("origin trace recorded no faults; the test lost its teeth")
	}
	rerec := &traffic.Trace{}
	if _, err := LoadRun(LoadOptions{Router: "limited", Replay: orig, Record: rerec}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRun(LoadOptions{Router: "limited", Replay: orig, Record: orig}); err == nil {
		t.Fatal("aliased Record == Replay accepted; the recorder would destroy the trace mid-replay")
	}
	if !reflect.DeepEqual(rerec.Faults, orig.Faults) {
		t.Fatalf("re-recorded trace lost the fault schedule:\n got %v\nwant %v", rerec.Faults, orig.Faults)
	}
	replayed, err := LoadRun(LoadOptions{Router: "limited", Replay: rerec})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, live) {
		t.Errorf("replay of the re-recorded trace diverged:\n live   %+v\n replay %+v", live, replayed)
	}
}

// TestTraceReplayAcrossRouters pins the controlled-comparison property the
// trace format exists for: the same recorded workload replays against
// different routers, each seeing the identical offered stream (equal
// measured offer counts), with only the network's response differing.
func TestTraceReplayAcrossRouters(t *testing.T) {
	rec := &traffic.Trace{}
	if _, err := LoadRun(LoadOptions{
		Dims: []int{6, 6}, Router: "limited", Pattern: "transpose",
		Rate: 0.25, Warmup: 16, Measure: 48, Drain: 48,
		NodeCapacity: 4, Seed: 3, Record: rec,
	}); err != nil {
		t.Fatal(err)
	}
	pts := map[string]traffic.LoadPoint{}
	for _, router := range []string{"limited", "congested", "blind"} {
		pt, err := LoadRun(LoadOptions{Router: router, Replay: rec})
		if err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		pts[router] = pt
	}
	base := pts["limited"]
	for router, pt := range pts {
		if pt.Offered != base.Offered {
			t.Errorf("%s saw %d measured offers, limited saw %d — the workload is not controlled",
				router, pt.Offered, base.Offered)
		}
		if pt.Delivered == 0 {
			t.Errorf("%s delivered nothing under the replayed workload", router)
		}
	}
}

// TestTraceReplayExplicitUnbounded pins the one engine knob where zero is
// meaningful: a negative NodeCapacity on a replay forces unbounded buffers
// instead of inheriting the trace's finite capacity (zero inherits).
func TestTraceReplayExplicitUnbounded(t *testing.T) {
	rec := &traffic.Trace{}
	live, err := LoadRun(LoadOptions{
		Dims: []int{6, 6}, Router: "limited", Pattern: "uniform",
		Rate: 0.3, Warmup: 16, Measure: 48, Drain: 48,
		NodeCapacity: 2, Seed: 7, Record: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if live.Dropped == 0 {
		t.Fatal("capacity-2 run dropped nothing; the test lost its teeth")
	}
	inherited, err := LoadRun(LoadOptions{Router: "limited", Replay: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inherited, live) {
		t.Errorf("zero-capacity replay did not inherit the trace's capacity:\n live   %+v\n replay %+v", live, inherited)
	}
	unbounded, err := LoadRun(LoadOptions{Router: "limited", NodeCapacity: -1, Replay: rec})
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.Dropped != 0 {
		t.Errorf("explicit-unbounded replay still dropped %d at the source", unbounded.Dropped)
	}
}

// TestNegativeCapacityReplays: a negative NodeCapacity means unbounded and
// clamps to 0 up front, as the other escape parameters clamp, so a live
// run's recording carries 0, round-trips through the trace format and
// replays to the live run's point. Unclamped, the trace header carried the
// negative value and did not decode.
func TestNegativeCapacityReplays(t *testing.T) {
	rec := &traffic.Trace{}
	live, err := LoadRun(LoadOptions{
		Dims: []int{6, 6}, Router: "limited", Pattern: "uniform",
		Rate: 0.3, Warmup: 16, Measure: 48, Drain: 48,
		NodeCapacity: -5, Seed: 7, Record: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffic.UnmarshalTrace(rec.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := LoadRun(LoadOptions{Router: "limited", Replay: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, live) {
		t.Errorf("replay of a negative-capacity recording diverged:\n live   %+v\n replay %+v", live, replayed)
	}
}

// TestReplayRefusesFieldsItDoesNotRead: the trace owns a replay's workload
// and fault schedule, so each field a replay would not read is refused by
// name — by LoadRun, by LoadOptions.Check and by ReplayCompareSweepWorkers
// alike — before any simulation is taken, where it was once overridden or
// ignored in silence. Every value set here is one a live run accepts. The
// comparison's options name the grid axes Patterns and Windows where a
// load run has Pattern and Window.
func TestReplayRefusesFieldsItDoesNotRead(t *testing.T) {
	rec := &traffic.Trace{}
	if _, err := LoadRun(LoadOptions{
		Dims: []int{6, 6}, Router: "limited", Pattern: "uniform",
		Rate: 0.15, Warmup: 8, Measure: 24, Drain: 24, Seed: 2, Record: rec,
	}); err != nil {
		t.Fatal(err)
	}
	type both struct {
		run *LoadOptions
		cmp *ReplayCompareOptions
	}
	for name, set := range map[string]func(o both){
		"Dims":          func(o both) { o.run.Dims, o.cmp.Dims = []int{9, 9}, []int{9, 9} },
		"Pattern":       func(o both) { o.run.Pattern, o.cmp.Patterns = "hotspot", []string{"hotspot"} },
		"Process":       func(o both) { o.run.Process, o.cmp.Process = "poisson", "poisson" },
		"Rate":          func(o both) { o.run.Rate, o.cmp.Rate = 0.9, 0.9 },
		"Window":        func(o both) { o.run.Window, o.cmp.Windows = 2, []int{2} },
		"Warmup":        func(o both) { o.run.Warmup, o.cmp.Warmup = 1, 1 },
		"Measure":       func(o both) { o.run.Measure, o.cmp.Measure = 1, 1 },
		"Drain":         func(o both) { o.run.Drain, o.cmp.Drain = 1, 1 },
		"Faults":        func(o both) { o.run.Faults, o.cmp.Faults = 5, 5 },
		"FaultInterval": func(o both) { o.run.FaultInterval, o.cmp.FaultInterval = 2, 2 },
		"FaultStart":    func(o both) { o.run.FaultStart, o.cmp.FaultStart = 3, 3 },
		"Clustered":     func(o both) { o.run.Clustered, o.cmp.Clustered = true, true },
		"FaultRate":     func(o both) { o.run.FaultRate, o.cmp.FaultRate = 0.01, 0.01 },
		"FaultModel":    func(o both) { o.run.FaultModel, o.cmp.FaultModel = "weibull", "weibull" },
		"FaultShape":    func(o both) { o.run.FaultShape, o.cmp.FaultShape = 1.5, 1.5 },
		"FaultRepair":   func(o both) { o.run.FaultRepair, o.cmp.FaultRepair = 40, 40 },
		"RetryBackoff":  func(o both) { o.run.RetryBackoff, o.cmp.RetryBackoff = 9, 9 },
	} {
		t.Run(name, func(t *testing.T) {
			pool := NewEnginePool(1)
			o := LoadOptions{Router: "limited", Replay: rec, Pool: pool}
			c := ReplayCompareOptions{Routers: []string{"limited", "dor"}, Replay: rec, Pool: pool}
			set(both{&o, &c})
			refused := func(entry, want string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "does not take "+want) {
					t.Errorf("%s: error = %v, want one naming %s", entry, err, want)
				}
			}
			_, err := ReplayCompareSweepWorkers(c, 1, 1)
			switch name {
			case "Pattern", "Window":
				refused("ReplayCompareSweepWorkers", name+"s", err)
			default:
				refused("ReplayCompareSweepWorkers", name+" (", err)
			}
			_, err = o.Check()
			refused("Check", name+" (", err)
			_, err = LoadRun(o)
			refused("LoadRun", name+" (", err)
			if st := pool.Stats(); st != (PoolStats{}) {
				t.Errorf("the refused replay touched the pool: %+v", st)
			}
		})
	}
}

// goldenClosedLoopRows is the pinned output of TestGoldenClosedLoopSweep
// (smallClosedLoop at seed 7, serial).
var goldenClosedLoopRows = []string{
	"{Dims:6x6 mesh Pattern:uniform Router:limited Window:1 InjectedRate:0.22858796296296297 AcceptedRate:0.22858796296296297 Injected:395 Delivered:395 Unreachable:0 Lost:0 Unfinished:0 LatMean:4.367088607594938 LatP50:4 LatP95:8 LatP99:9 LatMax:9}",
	"{Dims:6x6 mesh Pattern:uniform Router:limited Window:4 InjectedRate:0.5271990740740741 AcceptedRate:0.5271990740740741 Injected:911 Delivered:911 Unreachable:0 Lost:0 Unfinished:0 LatMean:7.540065861690448 LatP50:7 LatP95:16 LatP99:18 LatMax:20}",
	"{Dims:6x6 mesh Pattern:uniform Router:limited Window:16 InjectedRate:0.6452546296296297 AcceptedRate:0.6452546296296297 Injected:1115 Delivered:1115 Unreachable:0 Lost:0 Unfinished:0 LatMean:24.84215246636769 LatP50:27 LatP95:39 LatP99:42 LatMax:46}",
	"{Dims:6x6 mesh Pattern:transpose Router:limited Window:1 InjectedRate:0.24074074074074073 AcceptedRate:0.24074074074074073 Injected:416 Delivered:416 Unreachable:0 Lost:0 Unfinished:0 LatMean:4.139423076923079 LatP50:4 LatP95:8 LatP99:10 LatMax:10}",
	"{Dims:6x6 mesh Pattern:transpose Router:limited Window:4 InjectedRate:0.3425925925925926 AcceptedRate:0.3425925925925926 Injected:592 Delivered:592 Unreachable:0 Lost:0 Unfinished:0 LatMean:11.702702702702709 LatP50:11 LatP95:22 LatP99:24 LatMax:25}",
	"{Dims:6x6 mesh Pattern:transpose Router:limited Window:16 InjectedRate:0.3744212962962963 AcceptedRate:0.3385416666666667 Injected:647 Delivered:585 Unreachable:0 Lost:0 Unfinished:62 LatMean:42.30769230769233 LatP50:40 LatP95:86 LatP99:88 LatMax:88}",
}
