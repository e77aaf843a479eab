package ndmesh

import (
	"fmt"
	"testing"
)

// smallCongestionShift is the quick E20 grid used by the determinism and
// golden tests: a 6x6 mesh with finite buffers, one underloaded and one
// past-collapse rate per pattern.
func smallCongestionShift() CongestionShiftOptions {
	opt := DefaultCongestionShift()
	opt.Dims = []int{6, 6}
	opt.Rates = []float64{0.2, 0.45}
	opt.NodeCapacity = 6
	opt.Warmup, opt.Measure, opt.Drain = 16, 64, 64
	return opt
}

// TestGoldenCongestionShiftSweep pins one E20 run byte-for-byte at a fixed
// seed. Both routers replay identical scenarios inside each cell, so these
// strings double as a regression net over the whole stack: the rng split
// discipline, the traffic generator, the contention arbitration, the
// LoadView rotation and both routers' decisions. If a deliberate change to
// any of those is made, recapture in the same commit and say so.
func TestGoldenCongestionShiftSweep(t *testing.T) {
	rows, sums, err := CongestionShiftSweepWorkers(smallCongestionShift(), 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := []string{
		"{Dims:6x6 mesh Pattern:uniform OfferedRate:0.2 LimitedAccepted:0.2035590277777778 CongestedAccepted:0.2035590277777778 LimitedDropped:0 CongestedDropped:0 LimitedUnfinished:0 CongestedUnfinished:0 LimitedLatMean:4.249466950959483 CongestedLatMean:4.238805970149254 LimitedLatP99:9 CongestedLatP99:9}",
		"{Dims:6x6 mesh Pattern:uniform OfferedRate:0.45 LimitedAccepted:0.4361979166666667 CongestedAccepted:0.4314236111111111 LimitedDropped:9 CongestedDropped:20 LimitedUnfinished:0 CongestedUnfinished:0 LimitedLatMean:5.606965174129354 CongestedLatMean:5.617706237424548 LimitedLatP99:11 CongestedLatP99:11}",
		"{Dims:6x6 mesh Pattern:transpose OfferedRate:0.2 LimitedAccepted:0.19270833333333334 CongestedAccepted:0.1935763888888889 LimitedDropped:2 CongestedDropped:0 LimitedUnfinished:0 CongestedUnfinished:0 LimitedLatMean:5.972972972972973 CongestedLatMean:4.876681614349775 LimitedLatP99:15 CongestedLatP99:10}",
		"{Dims:6x6 mesh Pattern:transpose OfferedRate:0.45 LimitedAccepted:0.029079861111111112 CongestedAccepted:0.16145833333333334 LimitedDropped:755 CongestedDropped:451 LimitedUnfinished:209 CongestedUnfinished:208 LimitedLatMean:12.671641791044776 CongestedLatMean:10.744623655913976 LimitedLatP99:25 CongestedLatP99:24}",
	}
	wantSums := []string{
		"{Pattern:uniform LimitedSatRate:0.45 CongestedSatRate:0.45 LimitedSatAccepted:0.4361979166666667 CongestedSatAccepted:0.4314236111111111 ShiftPct:-1.0945273631840853}",
		"{Pattern:transpose LimitedSatRate:0.2 CongestedSatRate:0.2 LimitedSatAccepted:0.19270833333333334 CongestedSatAccepted:0.1935763888888889 ShiftPct:0.45045045045044885}",
	}
	if len(rows) != len(wantRows) {
		t.Fatalf("got %d rows, want %d", len(rows), len(wantRows))
	}
	for i, r := range rows {
		if got := fmt.Sprintf("%+v", r); got != wantRows[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got, wantRows[i])
		}
	}
	if len(sums) != len(wantSums) {
		t.Fatalf("got %d summaries, want %d", len(sums), len(wantSums))
	}
	for i, s := range sums {
		if got := fmt.Sprintf("%+v", s); got != wantSums[i] {
			t.Errorf("summary %d:\n got %s\nwant %s", i, got, wantSums[i])
		}
	}
}

// TestCongestionShiftAtSaturation is the acceptance criterion of the
// congestion-aware routing layer: on the fault-free 8x8 grid of the
// default E20 configuration, the congested router's accepted throughput at
// its saturation point is at least the limited router's — and measurably
// above it — for the uniform pattern (and transpose rides along). The run
// is deterministic at the fixed seed, so the exact comparison cannot
// flake.
func TestCongestionShiftAtSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("full E20 grid is a few million flight-steps")
	}
	_, sums, err := CongestionShiftSweepWorkers(DefaultCongestionShift(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sums {
		if s.CongestedSatAccepted < s.LimitedSatAccepted {
			t.Errorf("%s: congested saturation throughput %.4f below limited %.4f",
				s.Pattern, s.CongestedSatAccepted, s.LimitedSatAccepted)
		}
		if s.ShiftPct <= 1 {
			t.Errorf("%s: saturation shift %.2f%% not measurable (want > 1%%)", s.Pattern, s.ShiftPct)
		}
	}
}

// TestCongestedRouteMatchesLimitedWithoutContention pins the facade-level
// fallback: outside contention mode (the default Simulation configuration)
// routing with "congested" produces the identical RouteResult to
// "limited" on the same scenario — the LoadView reads zero everywhere and
// no stall ever happens.
func TestCongestedRouteMatchesLimitedWithoutContention(t *testing.T) {
	mk := func(router string) RouteResult {
		sim := MustSimulation(Config{Dims: []int{10, 10}})
		if err := sim.GenerateFaults(FaultPlan{Faults: 4, Interval: 6, Start: 2, Seed: 5,
			Avoid: []Coord{C(1, 1), C(8, 8)}}); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Route(C(1, 1), C(8, 8), router)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lim, cong := mk("limited"), mk("congested")
	if lim != cong {
		t.Errorf("contention-free routing diverged:\nlimited   %+v\ncongested %+v", lim, cong)
	}
}
