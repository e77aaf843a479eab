package ndmesh

import (
	"reflect"
	"testing"

	"ndmesh/internal/engine"
	"ndmesh/internal/grid"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
	"ndmesh/internal/traffic"
)

// TestResetEquivalence is the contract the sweeps' trial-reuse rests on: a
// Reset simulation must be observationally identical to a freshly
// constructed one — same routing results, same per-occurrence convergence
// log, same information placement — across dynamic scenarios that exercise
// every protocol layer (labeling, detection, identification, boundary
// floods, cancellation after recovery).
func TestResetEquivalence(t *testing.T) {
	cfg := Config{Dims: []int{14, 14}, Lambda: 2}
	type outcome struct {
		res     RouteResult
		events  []EventSummary
		records int
		nodes   int
		blocks  []Box
	}
	scenario := func(t *testing.T, sim *Simulation, seed uint64, router string) outcome {
		t.Helper()
		if err := sim.GenerateFaults(FaultPlan{
			Faults:       5,
			Interval:     9,
			Start:        2,
			RecoverAfter: 70,
			Avoid:        []Coord{C(1, 2), C(12, 11)},
			Seed:         seed,
		}); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Route(C(1, 2), C(12, 11), router)
		if err != nil {
			t.Fatal(err)
		}
		sim.Drain()
		return outcome{
			res:     res,
			events:  sim.Events(),
			records: sim.InfoRecords(),
			nodes:   sim.NodesWithInfo(),
			blocks:  sim.Blocks(),
		}
	}

	reused := MustSimulation(cfg)
	for seed := uint64(1); seed <= 6; seed++ {
		for _, router := range []string{"limited", "oracle", "blind"} {
			fresh := MustSimulation(cfg)
			want := scenario(t, fresh, seed, router)
			reused.Reset()
			got := scenario(t, reused, seed, router)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d router %s: reused simulation diverged\n got: %+v\nwant: %+v",
					seed, router, got, want)
			}
		}
	}
}

// TestResetAfterPartialRun resets mid-flight — schedule half-fired, message
// in the air, constructions converging — and checks the next trial is
// unaffected.
func TestResetAfterPartialRun(t *testing.T) {
	cfg := Config{Dims: []int{14, 14}, Lambda: 1}
	reused := MustSimulation(cfg)
	if err := reused.GenerateFaults(FaultPlan{Faults: 6, Interval: 5, Start: 1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := reused.engine.Inject(reused.shape.Index(C(1, 1)), reused.shape.Index(C(12, 12)), route.Limited{}); err != nil {
		t.Fatal(err)
	}
	reused.RunSteps(11) // mid-schedule, mid-flight, mid-construction
	reused.Reset()

	fresh := MustSimulation(cfg)
	for _, sim := range []*Simulation{fresh, reused} {
		if err := sim.GenerateFaults(FaultPlan{Faults: 3, Interval: 30, Start: 2, Seed: 9}); err != nil {
			t.Fatal(err)
		}
	}
	wantRes, err := fresh.Route(C(2, 2), C(11, 12), "limited")
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := reused.Route(C(2, 2), C(11, 12), "limited")
	if err != nil {
		t.Fatal(err)
	}
	if gotRes != wantRes {
		t.Errorf("post-reset route diverged: got %+v want %+v", gotRes, wantRes)
	}
	fresh.Drain()
	reused.Drain()
	if !reflect.DeepEqual(reused.Events(), fresh.Events()) {
		t.Errorf("post-reset events diverged:\n got %+v\nwant %+v", reused.Events(), fresh.Events())
	}
}

// stepCounter is a probe that counts the censuses handed to it.
type stepCounter struct{ censuses int }

func (c *stepCounter) ObserveStep(engine.StepCensus) { c.censuses++ }

// TestResetRestoresFreshState: Reset gives back the state NewSimulation
// builds, not only the step-0 clock. A simulation a load cell wired, with
// contention enabled, a probe attached and a flight in the air, comes back
// under the free configuration, with no flight, no probe and no load
// wiring, so a pool may hand it to the next job as it is.
func TestResetRestoresFreshState(t *testing.T) {
	opt := smallSaturation()
	sim := MustSimulation(Config{Dims: opt.Dims, Lambda: opt.Lambda})
	c := cellAt(opt, "uniform", 0.1, 0, "limited")
	lr, err := newLoadRun(sim, &c, rng.New(1).Split())
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.engine
	eng.EnableContention(engine.ContentionConfig{LinkRate: 1, NodeCapacity: opt.NodeCapacity})
	probe := &stepCounter{}
	eng.SetProbe(probe)
	if _, err := eng.Inject(0, grid.NodeID(sim.NumNodes()-1), lr.rtr); err != nil {
		t.Fatal(err)
	}
	eng.Step()
	eng.FlushCensus()
	if probe.censuses != 1 || !eng.ContentionEnabled() || reflect.ValueOf(sim.load.loadCell).IsZero() {
		t.Fatalf("before the Reset: %d censuses, contention %v, wired %v; the test lost its teeth",
			probe.censuses, eng.ContentionEnabled(), !reflect.ValueOf(sim.load.loadCell).IsZero())
	}

	sim.Reset()
	if eng.ContentionEnabled() {
		t.Error("contention still enabled after Reset; a fresh simulation runs the free configuration")
	}
	if n := len(eng.Flights()); n != 0 || eng.StepCount() != 0 {
		t.Errorf("after Reset %d flights attached at step %d, want none at step 0", n, eng.StepCount())
	}
	if !reflect.ValueOf(sim.load.loadCell).IsZero() {
		t.Errorf("the load cell's wiring survived Reset: %+v", sim.load.loadCell)
	}
	eng.Step()
	eng.FlushCensus()
	if probe.censuses != 1 {
		t.Errorf("the probe saw %d censuses after Reset, want none: a fresh simulation has no probe", probe.censuses-1)
	}
}

// TestResetDropsTraces: a pooled simulation that recorded one trace and
// then replayed it while recording another holds none of the caller's
// traces once it is back in the pool.
func TestResetDropsTraces(t *testing.T) {
	pool := NewEnginePool(0)
	c := cellAt(smallSaturation(), "uniform", 0.1, 0, "limited")
	c.Pool, c.Record, c.Seed = pool, &traffic.Trace{}, 1
	if _, err := LoadRun(c); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRun(LoadOptions{Router: "limited", Replay: c.Record, Record: &traffic.Trace{}, Pool: pool}); err != nil {
		t.Fatal(err)
	}
	var sims []*Simulation
	for _, idle := range pool.idle {
		sims = append(sims, idle...)
	}
	if len(sims) != 1 {
		t.Fatalf("the pool keeps %d simulations, want the one both runs took", len(sims))
	}
	load := &sims[0].load
	for name, src := range map[string]any{"trace player": &load.play, "trace recorder": &load.rec} {
		if !reflect.ValueOf(src).Elem().FieldByName("tr").IsNil() {
			t.Errorf("the pooled simulation's %s still holds a caller's trace", name)
		}
	}
}
