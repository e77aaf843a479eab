package traffic

import (
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
)

// TestClosedLoopWindowBound pins the defining invariant: a node never holds
// more than window outstanding requests, tops up immediately when slots
// free, and stays quiet while the window is full.
func TestClosedLoopWindowBound(t *testing.T) {
	shape := meshtest.MustShape(4, 4)
	pat, err := ByName(shape, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	const window = 3
	cl := NewClosedLoop(shape, pat, window, rng.New(7))

	accept := func(src, dst grid.NodeID) bool {
		if src == dst {
			t.Fatalf("pattern emitted src == dst (%d)", src)
		}
		return true
	}
	cl.Step(accept)
	n := shape.NumNodes()
	if got, want := inFlight(cl), n*window; got != want {
		t.Fatalf("first step in-flight %d, want full windows %d", got, want)
	}
	for node := 0; node < n; node++ {
		if cl.outstanding[node] != window {
			t.Fatalf("node %d outstanding %d, want %d", node, cl.outstanding[node], window)
		}
	}

	// Full windows: further steps must offer nothing.
	cl.Step(func(src, dst grid.NodeID) bool {
		t.Fatalf("offer from node %d with a full window", src)
		return false
	})

	// Releasing k slots lets exactly k new requests in, at those sources.
	cl.Release(5)
	cl.Release(5)
	offers := 0
	cl.Step(func(src, dst grid.NodeID) bool {
		if src != 5 {
			t.Fatalf("offer from node %d, want only node 5", src)
		}
		offers++
		return true
	})
	if offers != 2 {
		t.Fatalf("%d offers after 2 releases, want 2", offers)
	}
	if inFlight(cl) != n*window {
		t.Fatalf("in-flight %d after top-up, want %d", inFlight(cl), n*window)
	}
}

// TestClosedLoopRefusalDefers pins the no-drop semantics: a refused offer
// keeps the slot free and the node retries (with a fresh draw) on the next
// step, so refusals defer traffic rather than losing it.
func TestClosedLoopRefusalDefers(t *testing.T) {
	shape := meshtest.MustShape(3, 3)
	pat, err := ByName(shape, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClosedLoop(shape, pat, 2, rng.New(3))

	// Refuse node 0 entirely; everyone else accepts.
	cl.Step(func(src, dst grid.NodeID) bool { return src != 0 })
	if cl.outstanding[0] != 0 {
		t.Fatalf("refused node holds %d outstanding, want 0", cl.outstanding[0])
	}
	if got, want := inFlight(cl), (shape.NumNodes()-1)*2; got != want {
		t.Fatalf("in-flight %d, want %d", got, want)
	}

	// Next step: only node 0 has free slots, and now it is admitted.
	offers := 0
	cl.Step(func(src, dst grid.NodeID) bool {
		if src != 0 {
			t.Fatalf("offer from node %d, want only the deferred node 0", src)
		}
		offers++
		return true
	})
	if offers != 2 || cl.outstanding[0] != 2 {
		t.Fatalf("deferred node retried %d offers (outstanding %d), want 2", offers, cl.outstanding[0])
	}
}

// TestClosedLoopDeterministic pins the rng discipline: same (shape,
// pattern, window, seed) and same admission verdicts produce the identical
// offer sequence.
func TestClosedLoopDeterministic(t *testing.T) {
	shape := meshtest.MustShape(4, 6, 3)
	type ev struct{ s, d grid.NodeID }
	runOnce := func() []ev {
		pat, _ := ByName(shape, "hotspot")
		cl := NewClosedLoop(shape, pat, 2, rng.New(99))
		var out []ev
		refuse := false
		for step := 0; step < 20; step++ {
			cl.Step(func(s, d grid.NodeID) bool {
				out = append(out, ev{s, d})
				refuse = !refuse // alternate verdicts to exercise retries
				return refuse
			})
			// Release a deterministic trickle so the loop keeps drawing.
			if inFlight(cl) > 0 && step%3 == 0 {
				for node := 0; node < shape.NumNodes(); node++ {
					if cl.outstanding[node] > 0 {
						cl.Release(grid.NodeID(node))
						break
					}
				}
			}
		}
		return out
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("offer counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("offer %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestClosedLoopReleaseUnderflowPanics pins the accounting guard: releasing
// a node with no outstanding request is a bug in the caller's harvest
// wiring and must fail loudly, not corrupt the window.
func TestClosedLoopReleaseUnderflowPanics(t *testing.T) {
	shape := meshtest.MustShape(2, 2)
	pat, _ := ByName(shape, "uniform")
	cl := NewClosedLoop(shape, pat, 1, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Release on an empty window did not panic")
		}
	}()
	cl.Release(0)
}

// TestClosedLoopTimeoutBackoff pins the retry path's arithmetic: a timeout
// re-arms the slot under a delay of base<<(streak-1) plus a jitter of up to
// the same magnitude, consecutive timeouts double the band, and a Release
// (a delivery) resets the streak to the base band.
func TestClosedLoopTimeoutBackoff(t *testing.T) {
	shape := meshtest.MustShape(2, 2)
	pat, _ := ByName(shape, "uniform")
	const base = 4
	cl := NewClosedLoop(shape, pat, 1, rng.New(7))
	cl.ConfigureRetry(base)

	// Fill every window, then watch node 0 alone.
	cl.Step(func(src, dst grid.NodeID) bool { return true })

	// silentSteps runs Step until node 0 offers again (accepting the offer)
	// and returns how many steps it stayed silent.
	silentSteps := func() int {
		t.Helper()
		for silent := 0; ; silent++ {
			offered := false
			cl.Step(func(src, dst grid.NodeID) bool {
				if src == 0 {
					offered = true
				}
				return true
			})
			if offered {
				return silent
			}
			if silent > 20*base {
				t.Fatal("node 0 never offered again; backoff stuck")
			}
		}
	}

	cl.Timeout(0) // streak 1: delay in [base, 2*base)
	if s := silentSteps(); s < base || s >= 2*base {
		t.Errorf("first timeout backed off %d steps, want [%d, %d)", s, base, 2*base)
	}
	cl.Timeout(0) // streak 2: delay in [2*base, 4*base)
	if s := silentSteps(); s < 2*base || s >= 4*base {
		t.Errorf("second timeout backed off %d steps, want [%d, %d)", s, 2*base, 4*base)
	}
	cl.Release(0) // delivery ends the streak
	if s := silentSteps(); s != 0 {
		t.Errorf("release left node 0 silent for %d steps, want immediate top-up", s)
	}
	cl.Timeout(0) // streak restarts at 1: back to [base, 2*base)
	if s := silentSteps(); s < base || s >= 2*base {
		t.Errorf("post-release timeout backed off %d steps, want [%d, %d)", s, base, 2*base)
	}
}

// TestClosedLoopTimeoutNoBackoff pins the base == 0 configuration: the slot
// re-arms with no delay (the retry is offered on the very next step) and no
// randomness is consumed for jitter.
func TestClosedLoopTimeoutNoBackoff(t *testing.T) {
	shape := meshtest.MustShape(2, 2)
	pat, _ := ByName(shape, "uniform")
	cl := NewClosedLoop(shape, pat, 1, rng.New(3))
	cl.Step(func(src, dst grid.NodeID) bool { return true })
	cl.Timeout(0)
	offered := false
	cl.Step(func(src, dst grid.NodeID) bool {
		if src == 0 {
			offered = true
		}
		return true
	})
	if !offered {
		t.Fatal("zero-backoff timeout did not retry on the next step")
	}
}

// TestClosedLoopTimeoutUnderflowPanics mirrors the Release underflow guard:
// a Timeout for a node with nothing outstanding is a harvest-accounting bug
// and must fail loudly.
func TestClosedLoopTimeoutUnderflowPanics(t *testing.T) {
	shape := meshtest.MustShape(2, 2)
	pat, _ := ByName(shape, "uniform")
	cl := NewClosedLoop(shape, pat, 1, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Timeout on an empty window did not panic")
		}
	}()
	cl.Timeout(0)
}

// inFlight returns the requests outstanding across all of c's nodes.
func inFlight(c *ClosedLoop) int {
	n := 0
	for _, out := range c.outstanding {
		n += out
	}
	return n
}
