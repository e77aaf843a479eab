package traffic

import (
	"ndmesh/internal/grid"
	"ndmesh/internal/rng"
)

// Injector is one step's worth of offered traffic, the shape shared by the
// open-loop Generator, the closed-loop ClosedLoop source and the TracePlayer
// replaying a recorded workload. The emit callback owns admission and
// reports it: true means the message was injected, false that the source
// refused it (full input queue or bad node). Open-loop sources ignore the
// verdict (a refusal is a drop); the closed-loop source keeps the slot free
// and retries next step.
type Injector interface {
	Step(emit func(src, dst grid.NodeID) bool)
}

// ClosedLoop is a closed-loop workload source: every node holds a bounded
// window of outstanding requests and only issues a new one when a slot
// frees — the delivery (or any terminal outcome) of an earlier request,
// reported through Release. Where the open-loop processes keep offering
// traffic regardless of what the network does with it, a closed loop is
// self-throttling: injection adapts to delivery, which is how real
// request/reply workloads behave and why closed-loop curves expose
// fairness and saturation behavior that open-loop injection hides.
//
// Determinism follows the Generator's contract: all randomness flows
// through the single stream handed to NewClosedLoop, drawn in node order
// within a step, and slots are released by the engine's harvest pass,
// which runs in flight-injection order. A closed-loop run is therefore a
// deterministic function of (shape, pattern, window, stream, engine
// behavior) — the property the E21 sweep's serial/parallel equality
// rests on.
//
// The steady state allocates nothing: the per-node outstanding counters
// are a flat array sized once, and Step draws destinations into the same
// emit path the open-loop generator uses.
type ClosedLoop struct {
	shape       *grid.Shape
	pat         Pattern
	window      int
	outstanding []int
	r           *rng.Source

	// Retry state (ConfigureRetry). A timed-out request releases its slot
	// like any other terminal outcome, but the node then backs off: it
	// offers nothing until blockedUntil, with the delay growing
	// exponentially in the node's consecutive-timeout count (attempts) plus
	// a uniform jitter drawn from the same stream as everything else — in
	// harvest order, which the engine keeps deterministic. Any successful
	// delivery at the node resets the streak. backoff == 0 still re-arms
	// the slot (immediate retry next step), it just skips the delay.
	backoff      int
	attempts     []int
	blockedUntil []int
	step         int // Step() calls so far — the backoff clock
}

// NewClosedLoop builds a closed-loop source in which every node keeps up to
// window requests outstanding (window < 1 means 1).
func NewClosedLoop(shape *grid.Shape, pat Pattern, window int, r *rng.Source) *ClosedLoop {
	c := new(ClosedLoop)
	c.Reset(shape, pat, window, r)
	return c
}

// Reset rewinds c in place into the source NewClosedLoop builds from the
// same arguments (retry not configured), keeping its per-node arrays'
// capacity, so a pooled load cell reuses it.
func (c *ClosedLoop) Reset(shape *grid.Shape, pat Pattern, window int, r *rng.Source) {
	n := shape.NumNodes()
	*c = ClosedLoop{
		shape:        shape,
		pat:          pat,
		window:       max(window, 1),
		outstanding:  zeroed(c.outstanding, n),
		attempts:     zeroed(c.attempts, n),
		blockedUntil: zeroed(c.blockedUntil, n),
		r:            r,
	}
}

// zeroed returns s resized to n zeros, reusing its array when it is large
// enough.
func zeroed(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// ConfigureRetry sets the base backoff (in steps) applied when a timed-out
// request is re-armed: attempt k waits base<<(k-1) steps (the shift capped
// at backoffMaxShift) plus a uniform jitter of up to the same magnitude.
// base <= 0 means retry with no delay.
func (c *ClosedLoop) ConfigureRetry(base int) {
	if base < 0 {
		base = 0
	}
	c.backoff = base
}

// backoffMaxShift caps the exponential backoff so the delay stays bounded
// (base<<8 steps plus jitter) no matter how long a node's timeout streak
// runs.
const backoffMaxShift = 8

// backoffDelay is the retry discipline ClosedLoop and RetrySource share: the
// streak-th consecutive timeout waits base<<min(streak-1, backoffMaxShift)
// steps plus a uniform jitter of up to the same magnitude, drawn from r.
// base <= 0 is no delay and draws nothing.
//
//meshvet:noalloc TestEscapeClosedLoopStepAllocFree
func backoffDelay(base, streak int, r *rng.Source) int {
	if base <= 0 {
		return 0
	}
	delay := base << min(streak-1, backoffMaxShift)
	return delay + r.Intn(delay) // jitter: [0, delay)
}

// Step implements Injector: in node order, every node tops its outstanding
// count up to the window, drawing one destination per new request. A
// refusal (emit returns false: the source's input queue is full, or the
// node is down) leaves the slot free and moves on — the node retries with
// a fresh draw next step, so a closed loop never drops requests, it defers
// them.
//
//meshvet:noalloc TestClosedLoopStepAllocFree
func (c *ClosedLoop) Step(emit func(src, dst grid.NodeID) bool) {
	n := c.shape.NumNodes()
	for node := 0; node < n; node++ {
		if c.step < c.blockedUntil[node] {
			continue // backing off after a timeout; no draws, no offers
		}
		for c.outstanding[node] < c.window {
			src := grid.NodeID(node)
			dst := c.pat.Dest(src, c.r)
			if !emit(src, dst) {
				break // source blocked this step; retry next step
			}
			c.outstanding[node]++
		}
	}
	c.step++
}

// Release frees one outstanding slot at src: the request injected there
// reached a terminal state (delivered, unreachable or lost — all three
// must release, or faults would leak the window shut). The slot is
// reusable from the next Step on. A release also ends the node's
// consecutive-timeout streak: the network is moving traffic out of this
// node again, so the next timeout backs off from the base delay.
//
//meshvet:noalloc TestClosedLoopStepAllocFree
func (c *ClosedLoop) Release(src grid.NodeID) {
	if c.outstanding[src] <= 0 {
		panic("traffic: ClosedLoop.Release without an outstanding request")
	}
	c.outstanding[src]--
	c.attempts[src] = 0
}

// Timeout frees the slot of a timed-out request at src and re-arms it
// under exponential backoff: the node offers nothing until
// base<<min(streak-1, backoffMaxShift) steps plus a uniform jitter of the
// same magnitude have passed. The jitter is drawn from the loop's own
// stream at harvest time — the engine harvests in flight-injection order,
// so the draw sequence (and with it the whole run) stays deterministic.
// Every Timeout counts as one retry: the request is back in the node's
// window and will be re-offered (with a fresh destination draw) when the
// backoff expires.
//
//meshvet:noalloc TestEscapeClosedLoopStepAllocFree
func (c *ClosedLoop) Timeout(src grid.NodeID) {
	if c.outstanding[src] <= 0 {
		panic("traffic: ClosedLoop.Timeout without an outstanding request")
	}
	c.outstanding[src]--
	c.attempts[src]++
	if delay := backoffDelay(c.backoff, c.attempts[src], c.r); delay > 0 {
		c.blockedUntil[src] = max(c.blockedUntil[src], c.step+delay)
	}
}
