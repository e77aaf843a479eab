package ndmesh

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ndmesh/internal/traffic"
)

// smallReliability is the quick E23 grid used by the determinism and
// golden tests: a 6x6 mesh under moderate uniform load, a fault-free
// baseline column plus two fault rates with repair, small Monte-Carlo
// sample.
func smallReliability() ReliabilityOptions {
	opt := DefaultReliability()
	opt.Dims = []int{6, 6}
	opt.FaultRates = []float64{0, 0.01, 0.04}
	opt.FaultRepair = 60
	opt.Trials = 4
	opt.Rate = 0.15
	opt.Warmup, opt.Measure, opt.Drain = 16, 96, 96
	opt.NodeCapacity = 4
	opt.FlightTimeout = 24
	opt.RetryBackoff = 4
	opt.GridlockWindow = 8
	return opt
}

// TestParallelReliabilitySweepDeterministic extends the repository's
// determinism contract to E23: byte-identical rows for every worker count
// (run under -race in CI). The Monte-Carlo fold must not depend on which
// worker finished which trial first.
func TestParallelReliabilitySweepDeterministic(t *testing.T) {
	opt := smallReliability()
	serial, err := ReliabilitySweepWorkers(opt, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parWorkerCounts {
		got, err := ReliabilitySweepWorkers(opt, 42, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d:\n got %+v\nwant %+v", w, got, serial)
		}
	}
}

// TestGoldenReliabilitySweep pins one E23 run byte-for-byte at a fixed
// seed: the per-trial stream split, the fault-process draws (arrival,
// placement, repair), the open-loop retry jitter and the serial fold all
// feed these strings. If a deliberate change to any of those is made,
// recapture in the same commit and say so.
func TestGoldenReliabilitySweep(t *testing.T) {
	opt := smallReliability()
	opt.FaultRates = []float64{0, 0.04}
	opt.Trials = 2
	rows, err := ReliabilitySweepWorkers(opt, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenReliabilityRows
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if got := fmt.Sprintf("%+v", r); got != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// TestReliabilityCurveDegradesWithRate is the acceptance shape of the
// curve: the fault-free baseline applies no events and delivers
// everything; raising the fault rate raises the applied-event counts and
// cannot improve the delivered fraction.
func TestReliabilityCurveDegradesWithRate(t *testing.T) {
	opt := smallReliability()
	rows, err := ReliabilitySweepWorkers(opt, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(opt.FaultRates) {
		t.Fatalf("got %d rows, want %d", len(rows), len(opt.FaultRates))
	}
	base := rows[0]
	if base.FaultRate != 0 || base.MeanFailed != 0 || base.MeanRecovered != 0 {
		t.Fatalf("baseline row is not fault-free: %+v", base)
	}
	if base.DeliveredFrac != 1 {
		t.Errorf("fault-free baseline delivered %v of injected, want 1", base.DeliveredFrac)
	}
	prevFailed := 0.0
	for _, r := range rows[1:] {
		if r.MeanFailed <= prevFailed {
			t.Errorf("rate %v: mean failed %v did not grow past %v", r.FaultRate, r.MeanFailed, prevFailed)
		}
		prevFailed = r.MeanFailed
		if r.DeliveredFrac > base.DeliveredFrac {
			t.Errorf("rate %v: delivered frac %v exceeds the fault-free baseline %v", r.FaultRate, r.DeliveredFrac, base.DeliveredFrac)
		}
		if r.MeanRecovered == 0 {
			t.Errorf("rate %v: repair enabled but no recovery applied", r.FaultRate)
		}
		// Injected legitimately differs across rates even though the offered
		// stream is identical (TestReliabilityStreamIsolation): faulty
		// sources refuse offers and retries add measured ones.
	}
}

// TestReliabilityStreamIsolation pins the rng-stream split behind the
// Monte-Carlo contract from both sides: at a fixed seed, changing the
// fault rate must not move a single offered message (the traffic draws
// come before the split's children), and changing the traffic pattern
// must not move a single fault event (the fault draws come only from the
// dedicated child stream). FlightTimeout stays 0 here: retry jitter is
// traffic that legitimately depends on what the faults killed.
func TestReliabilityStreamIsolation(t *testing.T) {
	record := func(pattern string, rate float64) *traffic.Trace {
		tr := &traffic.Trace{}
		_, err := LoadRun(LoadOptions{
			Dims: []int{6, 6}, Router: "limited", Pattern: pattern,
			Rate: 0.2, Warmup: 16, Measure: 96, Drain: 96,
			FaultRate: rate, FaultModel: "bernoulli", FaultRepair: 50,
			Seed: 9, Record: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	lo, hi := record("uniform", 0.01), record("uniform", 0.05)
	if reflect.DeepEqual(lo.Faults, hi.Faults) {
		t.Fatal("different fault rates drew the identical schedule")
	}
	if len(lo.Faults) == 0 || len(hi.Faults) == 0 {
		t.Fatalf("empty fault schedules: %d / %d", len(lo.Faults), len(hi.Faults))
	}
	loOffers, hiOffers := lo.Faults, hi.Faults
	lo.Faults, hi.Faults = nil, nil
	if !bytes.Equal(lo.Marshal(), hi.Marshal()) {
		t.Error("changing the fault rate moved the offered traffic — the streams are not isolated")
	}
	lo.Faults, hi.Faults = loOffers, hiOffers
	// Other direction: the fault schedule is a function of the fault knobs
	// alone, not of the traffic pattern consuming the parent stream.
	transpose := record("transpose", 0.05)
	if !reflect.DeepEqual(transpose.Faults, hi.Faults) {
		t.Error("changing the traffic pattern moved the fault schedule — the streams are not isolated")
	}
}

// TestReliabilitySweepValidation pins the option errors.
func TestReliabilitySweepValidation(t *testing.T) {
	base := smallReliability()
	for name, mutate := range map[string]func(*ReliabilityOptions){
		"no fault rates":   func(o *ReliabilityOptions) { o.FaultRates = nil },
		"no trials":        func(o *ReliabilityOptions) { o.Trials = 0 },
		"no rate":          func(o *ReliabilityOptions) { o.Rate = 0 },
		"fault rate > 1":   func(o *ReliabilityOptions) { o.FaultRates = []float64{1.5} },
		"negative rate":    func(o *ReliabilityOptions) { o.FaultRates = []float64{-0.1} },
		"unknown model":    func(o *ReliabilityOptions) { o.FaultModel = "poisson" },
		"repair below 1":   func(o *ReliabilityOptions) { o.FaultRepair = 0.5 },
		"unknown process":  func(o *ReliabilityOptions) { o.Process = "warp" },
		"rate beyond proc": func(o *ReliabilityOptions) { o.Rate = 1.5 },
		"NaN rate":         func(o *ReliabilityOptions) { o.Rate = math.NaN() },
		"NaN fault rate":   func(o *ReliabilityOptions) { o.FaultRates = []float64{0, math.NaN()} },
		"infinite shape":   func(o *ReliabilityOptions) { o.FaultModel, o.FaultShape = "weibull", math.Inf(1) },
		"NaN repair":       func(o *ReliabilityOptions) { o.FaultRepair = math.NaN() },
	} {
		opt := base
		mutate(&opt)
		if _, err := ReliabilitySweepWorkers(opt, 1, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// goldenReliabilityRows is the pinned output of TestGoldenReliabilitySweep
// (smallReliability narrowed to {0, 0.04} x 2 trials at seed 7, serial).
// The pair doubles as a miniature curve: the fault column trades delivered
// fraction for unreachable/timed-out traffic while the offered workload
// stays the identical byte sequence.
var goldenReliabilityRows = []string{
	"{Dims:6x6 mesh Pattern:uniform Router:limited FaultRate:0 Trials:2 Injected:1041 Delivered:1041 Unreachable:0 Lost:0 TimedOut:0 Unfinished:0 RetryDropped:0 DeliveredFrac:1 UnreachableFrac:0 LostFrac:0 TimedOutFrac:0 AcceptedRate:0.1506076388888889 MeanFailed:0 MeanRecovered:0 GridlockedTrials:0 LatMean:4.334293948126799 LatP50Mean:4 LatP99Mean:9 LatMax:11}",
	"{Dims:6x6 mesh Pattern:uniform Router:limited FaultRate:0.04 Trials:2 Injected:932 Delivered:897 Unreachable:0 Lost:6 TimedOut:16 Unfinished:13 RetryDropped:16 DeliveredFrac:0.9624463519313304 UnreachableFrac:0 LostFrac:0.006437768240343348 TimedOutFrac:0.017167381974248927 AcceptedRate:0.12977430555555558 MeanFailed:6.5 MeanRecovered:4 GridlockedTrials:0 LatMean:6.982162764771459 LatP50Mean:5 LatP99Mean:55 LatMax:130}",
}
