package ndmesh

import (
	"math"
	"testing"

	"ndmesh/internal/rng"
	"ndmesh/internal/traffic"
)

// smallSaturation is a quick grid used by the determinism and behavior
// tests: two patterns, three rates, one router on a 6x6 mesh.
func smallSaturation() SaturationOptions {
	opt := DefaultSaturation()
	opt.Dims = []int{6, 6}
	opt.Patterns = []string{"uniform", "hotspot"}
	opt.Rates = []float64{0.05, 0.2, 0.5}
	opt.Warmup, opt.Measure, opt.Drain = 16, 48, 64
	opt.NodeCapacity = 4
	return opt
}

// cellAt is opt's base cell with a job's axes set, as a sweep job sets
// them: pattern at an open-loop rate or a closed-loop window, via router.
func cellAt[Row any](opt LoadSweepOptions[Row], pattern string, rate float64, window int, router string) LoadOptions {
	c := opt.Cell()
	c.Pattern, c.Rate, c.Window, c.Router = pattern, rate, window, router
	return c
}

// TestSaturationCurveMonotone is the acceptance criterion of the traffic
// subsystem: on a fault-free 8x8 mesh, latency rises with injection rate
// and accepted throughput saturates (plateaus below the offered rate).
// The run is deterministic, so exact comparisons are safe.
func TestSaturationCurveMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation curve run is a few hundred thousand flight-steps")
	}
	opt := DefaultSaturation()
	opt.Patterns = []string{"uniform"}
	opt.Rates = []float64{0.05, 0.2, 0.5, 0.9}
	rows, err := SaturationSweepWorkers(opt, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(opt.Rates) {
		t.Fatalf("got %d rows, want %d", len(rows), len(opt.Rates))
	}
	for i, r := range rows {
		if r.Delivered == 0 {
			t.Fatalf("rate %.2f delivered nothing", r.OfferedRate)
		}
		if i == 0 {
			continue
		}
		prev := rows[i-1]
		if r.LatMean < prev.LatMean {
			t.Errorf("latency not monotone: %.2f@%.2f < %.2f@%.2f",
				r.LatMean, r.OfferedRate, prev.LatMean, prev.OfferedRate)
		}
		if r.AcceptedRate < prev.AcceptedRate {
			t.Errorf("accepted throughput decreased: %.3f@%.2f < %.3f@%.2f",
				r.AcceptedRate, r.OfferedRate, prev.AcceptedRate, prev.OfferedRate)
		}
	}
	// Under deep underload the network accepts what is offered...
	lo := rows[0]
	if diff := lo.AcceptedRate - lo.OfferedRate; diff > 0.02 || diff < -0.02 {
		t.Errorf("underload accepted %.3f, offered %.3f", lo.AcceptedRate, lo.OfferedRate)
	}
	// ... and past saturation it cannot: backlog survives the drain and
	// the accepted rate falls short of the offered rate.
	hi := rows[len(rows)-1]
	if hi.Unfinished == 0 {
		t.Errorf("rate %.2f left no backlog: not saturated", hi.OfferedRate)
	}
	if hi.AcceptedRate >= hi.OfferedRate {
		t.Errorf("rate %.2f accepted %.3f: contention did not bind", hi.OfferedRate, hi.AcceptedRate)
	}
	// Queueing visibly separates the extremes.
	if hi.LatMean < 2*lo.LatMean {
		t.Errorf("saturated latency %.2f not clearly above underload %.2f", hi.LatMean, lo.LatMean)
	}
}

// TestSaturationTransposePlateau pins the plateau on the bisection-bound
// pattern: past saturation, offering 2.5x more transpose traffic changes
// the accepted throughput by only a few percent while the backlog grows.
func TestSaturationTransposePlateau(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation plateau run is a few hundred thousand flight-steps")
	}
	opt := DefaultSaturation()
	opt.Patterns = []string{"transpose"}
	opt.Rates = []float64{0.35, 0.9}
	rows, err := SaturationSweepWorkers(opt, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := rows[0], rows[1]
	ratio := b.AcceptedRate / a.AcceptedRate
	if ratio > 1.15 || ratio < 0.85 {
		t.Errorf("no plateau: accepted %.3f@%.2f vs %.3f@%.2f", a.AcceptedRate, a.OfferedRate,
			b.AcceptedRate, b.OfferedRate)
	}
	if b.Unfinished <= a.Unfinished {
		t.Errorf("backlog did not grow past saturation: %d vs %d", a.Unfinished, b.Unfinished)
	}
}

// TestSaturationWithFaults checks the fault overlay composes with load:
// the run completes, delivers traffic, and the schedule actually fired.
func TestSaturationWithFaults(t *testing.T) {
	opt := smallSaturation()
	opt.Patterns = []string{"uniform"}
	opt.Rates = []float64{0.1}
	opt.Faults = 3
	opt.FaultInterval = 10
	rows, err := SaturationSweepWorkers(opt, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Delivered == 0 {
		t.Fatal("no traffic delivered under faults")
	}
	// With faults some flights may be dropped at dead sources, refused or
	// lost; the accounting must still balance.
	r := rows[0]
	if r.Offered != r.Injected+r.Dropped {
		t.Fatalf("offer accounting broken: %+v", r)
	}
	if r.Injected < r.Delivered+r.Unreachable+r.Lost+r.Unfinished {
		t.Fatalf("outcome accounting exceeds injections: %+v", r)
	}
}

// TestSaturationPatternsRun sanity-checks every pattern and process end to
// end on an asymmetric mesh (the generators must keep endpoints in shape).
func TestSaturationPatternsRun(t *testing.T) {
	for _, proc := range []string{"bernoulli", "poisson", "bursty"} {
		opt := SaturationOptions{
			Dims:     []int{4, 6, 3},
			Routers:  []string{"limited"},
			Patterns: []string{"uniform", "transpose", "complement", "bitrev", "hotspot", "neighbor"},
			Rates:    []float64{0.15},
			Process:  proc,
			Warmup:   8, Measure: 24, Drain: 32,
			LinkRate: 1, NodeCapacity: 2,
		}
		rows, err := SaturationSweepWorkers(opt, 9, 0)
		if err != nil {
			t.Fatalf("%s: %v", proc, err)
		}
		for _, r := range rows {
			if r.Delivered == 0 {
				t.Errorf("%s/%s delivered nothing", proc, r.Pattern)
			}
		}
	}
}

// TestSaturationRejectsUnofferableRates pins the honesty check: rates the
// arrival process would silently clip are rejected up front, so the
// offered-rate axis of a curve never lies.
func TestSaturationRejectsUnofferableRates(t *testing.T) {
	opt := smallSaturation()
	opt.Rates = []float64{1.5} // a Bernoulli source caps at 1
	if _, err := SaturationSweepWorkers(opt, 1, 0); err == nil {
		t.Error("bernoulli at rate 1.5 should be rejected")
	}
	opt.Rates = []float64{0.5} // the default bursty duty cycle is 0.25
	opt.Process = "bursty"
	if _, err := SaturationSweepWorkers(opt, 1, 0); err == nil {
		t.Error("bursty at rate 0.5 should be rejected")
	}
	opt.Rates = []float64{1.5} // poisson batches arrivals: any rate is fine
	opt.Process = "poisson"
	opt.Patterns = []string{"uniform"}
	if _, err := SaturationSweepWorkers(opt, 1, 0); err != nil {
		t.Errorf("poisson at rate 1.5 should run: %v", err)
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1)} { // no cap, but still a number
		opt.Rates = []float64{rate}
		if _, err := SaturationSweepWorkers(opt, 1, 0); err == nil {
			t.Errorf("poisson at rate %v should be rejected", rate)
		}
	}
	opt.Rates = []float64{1.5}
	for _, fr := range []float64{math.NaN(), math.Inf(1)} {
		opt.FaultRate = fr
		if _, err := SaturationSweepWorkers(opt, 1, 0); err == nil {
			t.Errorf("fault rate %v should be rejected", fr)
		}
	}
	opt.FaultRate = 0
	opt.Warmup = -8 // negative phases would widen the measurement window
	if _, err := SaturationSweepWorkers(opt, 1, 0); err == nil {
		t.Error("negative warmup should be rejected")
	}
}

// TestLoadRunMatchesSweepCell pins LoadRun (the cmd/loadgen path) to the
// sweep: a one-cell sweep and LoadRun with the same parameters produce the
// same point.
func TestLoadRunMatchesSweepCell(t *testing.T) {
	opt := smallSaturation()
	opt.Patterns = []string{"uniform"}
	opt.Rates = []float64{0.2}
	rows, err := SaturationSweepWorkers(opt, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := LoadRun(LoadOptions{
		Dims: opt.Dims, Lambda: opt.Lambda, Router: "limited", Pattern: "uniform",
		Process: opt.Process, Rate: 0.2,
		Warmup: opt.Warmup, Measure: opt.Measure, Drain: opt.Drain,
		LinkRate: opt.LinkRate, NodeCapacity: opt.NodeCapacity, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if pt.Delivered != r.Delivered || pt.AcceptedRate != r.AcceptedRate ||
		pt.Latency.Mean != r.LatMean || pt.Latency.P99 != r.LatP99 {
		t.Fatalf("LoadRun diverged from sweep cell:\n load  %+v\n sweep %+v", pt, r)
	}
}

// TestSimulationRouteUnaffectedByContention guards the existing facade:
// a plain Route on a fresh simulation (no contention) is identical before
// and after the traffic subsystem existed — single flights never contend.
func TestSimulationRouteUnaffectedByContention(t *testing.T) {
	sim := MustSimulation(Config{Dims: []int{10, 10}})
	if err := sim.GenerateFaults(FaultPlan{Faults: 3, Interval: 8, Start: 2, Seed: 4,
		Avoid: []Coord{C(1, 1), C(8, 8)}}); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Route(C(1, 1), C(8, 8), "limited")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Arrived {
		t.Fatalf("route failed: %+v", res)
	}
	if res.Hops < res.D0 {
		t.Fatalf("hops %d below distance %d", res.Hops, res.D0)
	}
}

// TestLoadPointLeavesEngineClean pins the backlog-cleanup fix: after every
// load point — deep underload and past saturation (standing backlog
// survives the drain) — the pooled engine must come back with no attached
// flights and an all-zero residency census. Before the fix the backlog
// stayed attached with its residency counted, and only the next checkout's
// Reset rescued the next cell.
func TestLoadPointLeavesEngineClean(t *testing.T) {
	opt := smallSaturation()
	pool := NewEnginePool(0)
	for _, tc := range []struct {
		name  string
		rate  float64
		drain int
	}{
		{"underload", 0.05, opt.Drain},
		{"past-saturation", 0.5, 8}, // short drain: backlog guaranteed
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := opt
			o.Drain = tc.drain
			c := cellAt(o, "uniform", tc.rate, 0, "limited")
			pt, err := loadPoint(pool, &c, rng.New(3).Split())
			if err != nil {
				t.Fatal(err)
			}
			if tc.name != "underload" && pt.Unfinished == 0 {
				t.Fatal("past-saturation cell left no backlog; the test lost its teeth")
			}
			idle := pool.idle[newSimKey(o.Dims, o.Lambda)]
			if len(idle) != 1 {
				t.Fatalf("%d idle simulations after the load point, want 1", len(idle))
			}
			eng := idle[0].engine
			if n := len(eng.Flights()); n != 0 {
				t.Errorf("%d flights still attached after load point", n)
			}
			for id, r := range eng.ResidencyCensus() {
				if r != 0 {
					t.Errorf("node %d residency %d after load point, want 0", id, r)
				}
			}
			if eng.ContentionEnabled() {
				t.Error("contention still enabled after load point")
			}
		})
	}
}

// TestStepSaturatedCellPinned pins, field for field, the LoadRun point of
// the cell the benchmark's step-saturated workload measures
// (bench/batch.go: 32x32, limited, uniform, bernoulli 0.12, 128/256/128,
// seed 1), so a rewrite of the hot step that changes one simulated
// statistic fails tier-1 rather than waiting for rows_sha256 to differ in a
// benchmark run.
func TestStepSaturatedCellPinned(t *testing.T) {
	want := traffic.LoadPoint{
		OfferedRate: 0.12, AcceptedRate: 0.12005615234375,
		Offered: 31472, Injected: 31472, Delivered: 31472,
		Latency: traffic.LatencySummary{Mean: 36.792100915098764, P50: 37, P95: 61, P99: 70, Max: 89, N: 31472},
	}
	got, err := LoadRun(LoadOptions{
		Dims: []int{32, 32}, Lambda: 1, Router: "limited", Pattern: "uniform",
		Process: "bernoulli", Rate: 0.12, Warmup: 128, Measure: 256, Drain: 128,
		LinkRate: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("got %+v\nwant %+v", got, want)
	}
}
