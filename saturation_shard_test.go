package ndmesh

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"ndmesh/internal/rng"
	"ndmesh/internal/traffic"
)

// shardCounts is the intra-step determinism matrix, mirroring
// parWorkerCounts for the across-cell fan-out: serial, even split, a
// count that does not divide the node grid, and whatever the host offers.
var shardCounts = []int{1, 2, 7, runtime.GOMAXPROCS(0)}

// TestShardedSaturationSweepDeterministic extends the repository's
// byte-identical contract inside a step: E19 rows must be identical at
// every shard count (run under -race in CI, certifying the propose
// fan-out shares no mutable state). Shards compose with Workers, so the
// matrix crosses both axes once.
func TestShardedSaturationSweepDeterministic(t *testing.T) {
	opt := smallSaturation()
	opt.Routers = []string{"limited", "congested"}
	serial, err := SaturationSweepWorkers(opt, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shardCounts {
		opt.Shards = s
		for _, w := range []int{1, 3} {
			got, err := SaturationSweepWorkers(opt, 42, w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, serial) {
				t.Errorf("shards=%d workers=%d:\n got %+v\nwant %+v", s, w, got, serial)
			}
		}
	}
}

// TestShardedCongestionShiftDeterministic is the E20 row of the matrix:
// the controlled limited-vs-congested comparison — including the
// non-step-stable congested router's serial-decide fallback — must be
// byte-identical at every shard count.
func TestShardedCongestionShiftDeterministic(t *testing.T) {
	opt := DefaultCongestionShift()
	opt.Dims = []int{6, 6}
	opt.Rates = []float64{0.15, 0.4}
	opt.Warmup, opt.Measure, opt.Drain = 16, 48, 48
	opt.NodeCapacity = 4
	serialRows, serialSums, err := CongestionShiftSweepWorkers(opt, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shardCounts {
		opt.Shards = s
		rows, sums, err := CongestionShiftSweepWorkers(opt, 9, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, serialRows) || !reflect.DeepEqual(sums, serialSums) {
			t.Errorf("shards=%d: E20 diverged from serial\n got %+v / %+v\nwant %+v / %+v",
				s, rows, sums, serialRows, serialSums)
		}
	}
}

// TestLoadPointLeavesEngineClean pins the backlog-cleanup fix: after every
// load point — deep underload, past saturation (standing backlog survives
// the drain), and a sharded run — the pooled engine must come back with no
// attached flights and an all-zero residency census. Before the fix the
// backlog stayed attached with its residency counted, and only
// simPool.get's Reset rescued the next cell.
func TestLoadPointLeavesEngineClean(t *testing.T) {
	opt := smallSaturation()
	pool := newSimPool()
	for _, tc := range []struct {
		name   string
		rate   float64
		shards int
		drain  int
	}{
		{"underload", 0.05, 1, opt.Drain},
		{"past-saturation", 0.5, 1, 8}, // short drain: backlog guaranteed
		{"past-saturation-sharded", 0.5, 5, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := opt
			o.Drain = tc.drain
			o.Shards = tc.shards
			pt, err := pool.loadPoint(o, workload{pattern: "uniform", rate: tc.rate}, "limited", rng.New(3).Split())
			if err != nil {
				t.Fatal(err)
			}
			if tc.name != "underload" && pt.Unfinished == 0 {
				t.Fatal("past-saturation cell left no backlog; the test lost its teeth")
			}
			sim, ok := pool.sims[simKey{fmt.Sprint(o.Dims), o.Lambda}]
			if !ok {
				t.Fatal("pooled simulation missing")
			}
			eng := sim.engine
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
			if eng.Shards() != 1 {
				t.Errorf("shard workers still configured after load point (%d)", eng.Shards())
			}
		})
	}
}

// TestStepSaturatedCellPinned pins, field for field and at every shard
// count, the LoadRun point of the cell the benchmark's step-saturated
// workload measures (bench/batch.go: 32x32, limited, uniform, bernoulli
// 0.12, 128/256/128, seed 1), so a rewrite of the hot step that changes one
// simulated statistic fails tier-1 rather than waiting for rows_sha256 to
// differ in a benchmark run.
func TestStepSaturatedCellPinned(t *testing.T) {
	want := traffic.LoadPoint{
		OfferedRate: 0.12, AcceptedRate: 0.12005615234375,
		Offered: 31472, Injected: 31472, Delivered: 31472,
		Latency: traffic.LatencySummary{Mean: 36.792100915098764, P50: 37, P95: 61, P99: 70, Max: 89, N: 31472},
	}
	for _, s := range []int{1, 2, 7} {
		got, err := LoadRun(LoadOptions{
			Dims: []int{32, 32}, Lambda: 1, Router: "limited", Pattern: "uniform",
			Process: "bernoulli", Rate: 0.12, Warmup: 128, Measure: 256, Drain: 128,
			LinkRate: 1, Seed: 1, Shards: s,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("shards=%d:\n got %+v\nwant %+v", s, got, want)
		}
	}
}
