package engine

import (
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/route"
)

// headOnPair injects two flights facing each other across one link with
// capacity-1 buffers: each needs the slot the other occupies, so neither
// can ever move — the minimal buffer-cycle deadlock, deterministic by
// construction.
func headOnPair(t *testing.T, e *Engine, shape *grid.Shape) (*Flight, *Flight) {
	t.Helper()
	u := shape.Index(grid.Coord{1, 1})
	v := shape.Index(grid.Coord{2, 1})
	a, err := e.Inject(u, v, route.DOR{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Inject(v, u, route.DOR{})
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestGridlockDetectsHeadOnDeadlock pins the zero-progress detector on the
// minimal constructed deadlock: with window W, the detector latches exactly
// after W dead steps, reports the 1-based detection step, and — absent any
// escape mechanism — never recovers.
func TestGridlockDetectsHeadOnDeadlock(t *testing.T) {
	const window = 4
	e, shape := newContentionEngine(t, 4, ContentionConfig{
		LinkRate: 1, NodeCapacity: 1, GridlockWindow: window,
	})
	a, b := headOnPair(t, e, shape)
	for i := 0; i < window-1; i++ {
		e.Step()
		if e.Gridlocked() {
			t.Fatalf("detector fired after %d dead steps, window is %d", i+1, window)
		}
	}
	e.Step()
	if !e.Gridlocked() {
		t.Fatalf("detector silent after %d dead steps", window)
	}
	if got := e.GridlockStep(); got != window {
		t.Errorf("GridlockStep = %d, want %d", got, window)
	}
	if got := e.GridlockRecovery(); got != 0 {
		t.Errorf("GridlockRecovery = %d before any recovery, want 0", got)
	}
	if a.StallAge != window || b.StallAge != window {
		t.Errorf("stall ages %d/%d after %d dead steps, want %d", a.StallAge, b.StallAge, window, window)
	}
	// More dead steps keep the latch held and the first-detection step fixed.
	e.Step()
	if !e.Gridlocked() || e.GridlockStep() != window {
		t.Errorf("latch moved: gridlocked=%v step=%d", e.Gridlocked(), e.GridlockStep())
	}
}

// TestFlightTimeoutBreaksDeadlock pins the escape path end to end: the
// timeout kills both deadlocked flights (a terminal transition that counts
// as progress), the detector unlatches, time-to-recovery is measured from
// first detection, and the harvest releases the router buffers.
func TestFlightTimeoutBreaksDeadlock(t *testing.T) {
	const window, timeout = 4, 6
	e, shape := newContentionEngine(t, 4, ContentionConfig{
		LinkRate: 1, NodeCapacity: 1,
		GridlockWindow: window, FlightTimeout: timeout,
	})
	a, b := headOnPair(t, e, shape)
	// Steps 1..timeout stall both flights (detection at step `window`);
	// step timeout+1 finds StallAge == timeout and kills them.
	for i := 0; i < timeout+1; i++ {
		e.Step()
	}
	if !a.Msg.TimedOut || !b.Msg.TimedOut {
		t.Fatalf("flights not timed out after %d steps: %v / %v", timeout+1, a.Msg, b.Msg)
	}
	if !a.Msg.Done() {
		t.Fatal("TimedOut message does not report Done")
	}
	if e.Gridlocked() {
		t.Error("detector still latched after the kills unjammed the run")
	}
	if got := e.GridlockStep(); got != window {
		t.Errorf("GridlockStep = %d, want %d (first episode pinned)", got, window)
	}
	if got := e.GridlockRecovery(); got != timeout-window+1 {
		t.Errorf("GridlockRecovery = %d, want %d (detection to the kill step)", got, timeout-window+1)
	}
	timedOut := 0
	e.DetachDone(func(f *Flight) {
		if f.Msg.TimedOut {
			timedOut++
		}
	})
	if timedOut != 2 {
		t.Fatalf("harvested %d timed-out flights, want 2", timedOut)
	}
	for id := 0; id < shape.NumNodes(); id++ {
		if r := e.Resident(grid.NodeID(id)); r != 0 {
			t.Fatalf("node %d residency %d after harvest, want 0", id, r)
		}
	}
}

// TestBubbleAdmission pins the injection gate: with Bubble set, admission
// requires a free slot to remain after the injection, so the effective
// limit is NodeCapacity-1; unbounded capacity admits everything regardless.
func TestBubbleAdmission(t *testing.T) {
	e, shape := newContentionEngine(t, 4, ContentionConfig{
		LinkRate: 1, NodeCapacity: 2, Bubble: true,
	})
	u := shape.Index(grid.Coord{1, 1})
	v := shape.Index(grid.Coord{2, 2})
	if !e.Admit(u) {
		t.Fatal("empty node not admitted under bubble")
	}
	if _, err := e.Inject(u, v, route.DOR{}); err != nil {
		t.Fatal(err)
	}
	if e.Admit(u) {
		t.Error("bubble admission let the last free slot be claimed (capacity 2, resident 1)")
	}

	plain, _ := newContentionEngine(t, 4, ContentionConfig{LinkRate: 1, NodeCapacity: 2})
	for i := 0; i < 2; i++ {
		if !plain.Admit(u) {
			t.Fatalf("plain admission refused at resident %d, capacity 2", i)
		}
		if _, err := plain.Inject(u, v, route.DOR{}); err != nil {
			t.Fatal(err)
		}
	}
	if plain.Admit(u) {
		t.Error("plain admission exceeded capacity")
	}

	unbounded, _ := newContentionEngine(t, 4, ContentionConfig{LinkRate: 1, Bubble: true})
	if !unbounded.Admit(u) {
		t.Error("bubble with unbounded capacity must admit everything")
	}
}

// TestStallAgeAndDetectorResetAcrossClearAndReset pins the recycling paths:
// ClearFlights and Reset both unlatch the detector and rewind its episode
// markers, and a recycled Flight re-enters service with StallAge 0.
func TestStallAgeAndDetectorResetAcrossClearAndReset(t *testing.T) {
	const window = 3
	e, shape := newContentionEngine(t, 4, ContentionConfig{
		LinkRate: 1, NodeCapacity: 1, GridlockWindow: window,
	})
	gridlockIt := func() {
		t.Helper()
		a, _ := headOnPair(t, e, shape)
		for i := 0; i < window; i++ {
			e.Step()
		}
		if !e.Gridlocked() || a.StallAge == 0 {
			t.Fatalf("setup failed: gridlocked=%v stallAge=%d", e.Gridlocked(), a.StallAge)
		}
	}
	gridlockIt()
	e.ClearFlights()
	if e.Gridlocked() || e.GridlockStep() != 0 || e.GridlockRecovery() != 0 {
		t.Fatalf("ClearFlights kept detector state: gridlocked=%v step=%d recovery=%d",
			e.Gridlocked(), e.GridlockStep(), e.GridlockRecovery())
	}
	// The next injection reuses a recycled Flight; its stall age must not
	// leak from the previous life.
	a, b := headOnPair(t, e, shape)
	if a.StallAge != 0 || b.StallAge != 0 {
		t.Fatalf("recycled flights carry stall age %d/%d, want 0", a.StallAge, b.StallAge)
	}
	for i := 0; i < window; i++ {
		e.Step()
	}
	if !e.Gridlocked() {
		t.Fatal("re-armed deadlock not re-detected after ClearFlights")
	}
	e.Reset()
	if e.Gridlocked() || e.GridlockStep() != 0 {
		t.Fatalf("Reset kept detector state: gridlocked=%v step=%d", e.Gridlocked(), e.GridlockStep())
	}
	gridlockIt() // detector fully functional after Reset
}

// TestRunStops pins Run's two ends besides the budget: its stop rule,
// called once before every step, and a wedged run — a latched detector with
// no flight timeout. A latch that a timeout will break is not terminal: the
// run keeps stepping until the kills end it.
func TestRunStops(t *testing.T) {
	const window = 4
	e, shape := newContentionEngine(t, 4, ContentionConfig{
		LinkRate: 1, NodeCapacity: 1, GridlockWindow: window,
	})
	free := shape.Index(grid.Coord{0, 0})
	dst := shape.Index(grid.Coord{3, 0})
	if _, err := e.Inject(free, dst, route.DOR{}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	idle := func() bool { calls++; return e.Idle() }
	if steps := e.Run(100, idle); steps != 3 || !e.Idle() || calls != 4 {
		t.Errorf("free flight: Run = %d steps, idle %v, %d stop calls; want 3, true, 4", steps, e.Idle(), calls)
	}
	e.ClearFlights()

	if _, err := e.Inject(free, dst, route.DOR{}); err != nil {
		t.Fatal(err)
	}
	if steps := e.Run(1, e.Idle); steps != 1 || e.Idle() {
		t.Errorf("tight budget: Run = %d steps, idle %v; want 1, false", steps, e.Idle())
	}
	e.ClearFlights()

	headOnPair(t, e, shape)
	if steps := e.Run(100, e.Idle); steps != window || !e.Wedged() {
		t.Errorf("deadlock: Run = %d steps, wedged %v; want %d, true", steps, e.Wedged(), window)
	}

	e, shape = newContentionEngine(t, 4, ContentionConfig{
		LinkRate: 1, NodeCapacity: 1, GridlockWindow: window, FlightTimeout: 2 * window,
	})
	a, b := headOnPair(t, e, shape)
	steps := e.Run(100, e.Idle)
	if !a.Msg.TimedOut || !b.Msg.TimedOut {
		t.Errorf("escapable deadlock: Run stopped after %d steps with timed-out %v/%v, want both", steps, a.Msg.TimedOut, b.Msg.TimedOut)
	}
	if steps <= window || e.Wedged() {
		t.Errorf("escapable deadlock: Run = %d steps, wedged %v; want past the %d-step latch, not wedged", steps, e.Wedged(), window)
	}
}

// TestTimeoutStepAllocFree extends the steady-state allocation guarantee to
// the escape path: a contention step in which flights stall, time out, are
// harvested and re-injected — the full kill/recycle cycle — allocates
// nothing once the free lists are warm.
func TestTimeoutStepAllocFree(t *testing.T) {
	e, shape := newContentionEngine(t, 4, ContentionConfig{
		LinkRate: 1, NodeCapacity: 1,
		GridlockWindow: 2, FlightTimeout: 3, Bubble: false,
	})
	rearm := func() {
		if len(e.Flights()) == 0 {
			u := shape.Index(grid.Coord{1, 1})
			v := shape.Index(grid.Coord{2, 1})
			if e.Admit(u) {
				if _, err := e.Inject(u, v, route.DOR{}); err != nil {
					t.Fatal(err)
				}
			}
			if e.Admit(v) {
				if _, err := e.Inject(v, u, route.DOR{}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	rearm()
	step := func() {
		e.Step()
		e.DetachDone(nil)
		rearm()
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("timeout/kill/recycle step allocates %.1f/op, want 0", allocs)
	}
}
