package ndmesh

import (
	"reflect"
	"testing"

	"ndmesh/internal/traffic"
)

// openLoopRetryCell is a 6x6 open-loop run pushed hard enough into
// contention that flight timeouts fire: the retry source
// (traffic.RetrySource) must re-offer the kills instead of letting offered load vanish.
func openLoopRetryCell() LoadOptions {
	return LoadOptions{
		Dims: []int{6, 6}, Router: "limited", Pattern: "uniform",
		Rate: 0.4, Warmup: 16, Measure: 96, Drain: 96,
		NodeCapacity: 4, FlightTimeout: 12, RetryBackoff: 4, GridlockWindow: 6,
		Seed: 3,
	}
}

// TestOpenLoopRetryConservation pins the open-loop retry accounting: every
// measured timeout re-arms exactly one retry, the conservation invariant
// holds, and retries whose backoff outlives the injection window surface
// as RetryDropped instead of disappearing.
func TestOpenLoopRetryConservation(t *testing.T) {
	pt, err := LoadRun(openLoopRetryCell())
	if err != nil {
		t.Fatal(err)
	}
	if pt.TimedOut == 0 {
		t.Fatal("no timeouts fired; the test lost its teeth")
	}
	if pt.Retried != pt.TimedOut {
		t.Errorf("retried %d != timed-out %d: each open-loop timeout must re-arm exactly once", pt.Retried, pt.TimedOut)
	}
	if sum := pt.Delivered + pt.Unreachable + pt.Lost + pt.TimedOut + pt.Unfinished; pt.Injected != sum {
		t.Errorf("conservation broken: injected %d != %d (delivered %d + unreach %d + lost %d + timed-out %d + unfin %d)",
			pt.Injected, sum, pt.Delivered, pt.Unreachable, pt.Lost, pt.TimedOut, pt.Unfinished)
	}
	if pt.RetryDropped > pt.Retried {
		t.Errorf("retry-dropped %d exceeds retried %d", pt.RetryDropped, pt.Retried)
	}
}

// TestOpenLoopRetryChangesOffers pins that the retry source actually
// re-offers: the same cell with timeouts disabled (no kills, no retries)
// must offer strictly less measured traffic than the retrying run, whose
// re-offers land as fresh measured offers.
func TestOpenLoopRetryChangesOffers(t *testing.T) {
	withRetry, err := LoadRun(openLoopRetryCell())
	if err != nil {
		t.Fatal(err)
	}
	bare := openLoopRetryCell()
	bare.FlightTimeout = 0
	bare.GridlockWindow = 0 // a wedged cell would cut the run short
	without, err := LoadRun(bare)
	if err != nil {
		t.Fatal(err)
	}
	reoffered := withRetry.Retried - withRetry.RetryDropped
	if reoffered <= 0 {
		t.Fatalf("no retry was re-offered before injection closed (retried %d, dropped %d); the cell cannot distinguish the source",
			withRetry.Retried, withRetry.RetryDropped)
	}
	if withRetry.Offered <= without.Offered {
		t.Errorf("retrying run offered %d, timeout-free run %d: re-offers should add measured offers",
			withRetry.Offered, without.Offered)
	}
}

// TestOpenLoopRetryRecordReplay pins the trace contract for the retry
// source: retried offers are recorded through the emit path like any
// other, so a replay — which runs no retry machinery — reproduces the
// identical network behavior, and counts each timeout retried as its
// origin did (the trace stream carries the re-offers). RetryDropped, the
// retries still pending when injection closed, were never offered, so no
// trace carries them: a replay reports 0, and the origin's is normalized
// before the comparison.
func TestOpenLoopRetryRecordReplay(t *testing.T) {
	opt := openLoopRetryCell()
	opt.Record = &traffic.Trace{}
	live, err := LoadRun(opt)
	if err != nil {
		t.Fatal(err)
	}
	if live.Retried == 0 {
		t.Fatal("origin run retried nothing; the test lost its teeth")
	}
	tr, err := traffic.UnmarshalTrace(opt.Record.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := LoadRun(LoadOptions{Router: opt.Router, Replay: tr})
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Retried != live.Retried || replayed.RetryDropped != 0 {
		t.Errorf("replay retried %d (dropped %d), want the origin's %d (and 0)",
			replayed.Retried, replayed.RetryDropped, live.Retried)
	}
	live.RetryDropped = 0
	if !reflect.DeepEqual(replayed, live) {
		t.Errorf("replay diverged from live run:\n live   %+v\n replay %+v", live, replayed)
	}
}

// TestCongestedRecoveryDeterministic is the mid-run-recovery coverage
// satellite: a congested-router run under a repairing fault process — Fail
// and Recover events landing on a mesh with resident flights, LoadView
// reads taken across the recoveries — must actually apply recoveries
// mid-run, deliver, and repeat byte-identically.
func TestCongestedRecoveryDeterministic(t *testing.T) {
	opt := LoadOptions{
		Dims: []int{6, 6}, Router: "congested", Pattern: "uniform",
		Rate: 0.3, Warmup: 16, Measure: 128, Drain: 96,
		NodeCapacity: 4, FlightTimeout: 16, RetryBackoff: 4, GridlockWindow: 8,
		FaultRate: 0.05, FaultModel: "bernoulli", FaultRepair: 30,
		Seed: 13,
	}
	first, err := LoadRun(opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Failed == 0 || first.Recovered == 0 {
		t.Fatalf("cell applied %d fails / %d recoveries; need both mid-run (tune the rate)", first.Failed, first.Recovered)
	}
	if first.Delivered == 0 {
		t.Fatal("nothing delivered under the fault process; the cell is dead")
	}
	again, err := LoadRun(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Errorf("repeat run diverged:\n got %+v\nwant %+v", again, first)
	}
}
