package traffic

import (
	"ndmesh/internal/grid"
	"ndmesh/internal/rng"
)

// RetrySource closes the open loop's escape gap (ARCHITECTURE.md "Deadlock
// escape & graceful degradation"): the open-loop generator ignores what the
// network does with its traffic, so a flight killed by the engine's flight
// timeout used to vanish — the run silently delivered less than it offered.
// RetrySource wraps an open-loop Injector and re-offers timed-out requests
// under the same jittered exponential backoff the closed loop uses
// (ClosedLoop.Timeout), with two deliberate differences: the retried
// request keeps its original destination (an open loop has no per-node
// request identity to redraw), and the backoff delays only the retried
// request — fresh open-loop arrivals keep flowing, because an open loop is
// not self-throttling.
//
// Retries are emitted through Step *before* the inner source's fresh
// arrivals (older traffic first), so a TraceRecorder wrapping the
// RetrySource records them as ordinary offers and a replay needs no
// retry machinery of its own — the recorded stream already carries them.
//
// Determinism: the jitter draws from the stream handed to NewRetrySource
// at Timeout time; the engine harvests in flight-injection order, so the
// draw sequence is fixed. Steady state allocates nothing: the pending
// queue compacts in place and the per-source streaks are a flat array.
type RetrySource struct {
	inner   Injector
	r       *rng.Source
	backoff int

	pending  []retryItem
	attempts []int // per-source consecutive-timeout streak
	step     int   // Step() calls so far — the backoff clock
}

type retryItem struct {
	src, dst grid.NodeID
	due      int
	// measured carries the caller's phase attribution of the killed
	// flight, so dropped retries can be accounted against the right
	// window without this package knowing about Phases.
	measured bool
}

// NewRetrySource wraps inner so timed-out requests reported through
// Timeout are re-offered. base is the backoff base delay in steps
// (attempt k waits base<<(k-1), capped at backoffMaxShift, plus a uniform
// jitter of the same magnitude; base <= 0 retries on the next step).
func NewRetrySource(inner Injector, numNodes, base int, r *rng.Source) *RetrySource {
	q := new(RetrySource)
	q.Reset(inner, numNodes, base, r)
	return q
}

// Reset rewinds q in place into the source NewRetrySource builds from the
// same arguments, keeping the pending queue's and the streak array's
// capacity, so a pooled load cell reuses it (Trim bounds the queue's).
func (q *RetrySource) Reset(inner Injector, numNodes, base int, r *rng.Source) {
	*q = RetrySource{inner: inner, r: r, backoff: max(base, 0),
		pending: q.pending[:0], attempts: zeroed(q.attempts, numNodes)}
}

// trimFloor is the pending capacity Trim lets any source keep (24 KiB of
// entries): an open loop is not self-throttling, so a saturated cell
// queues retries in proportion to its timeouts, not to the mesh — 853 on
// a saturated 8x8 — and dropping so small a queue would only make every
// warm rerun of the cell regrow it.
const trimFloor = 1024

// Trim drops a pending queue grown past the node count (or trimFloor, if
// larger), so a pooled source keeps at most that much between runs:
// Reset alone would keep a saturated cell's high-water capacity (24,576
// entries, 590 KB, after a 32x32 cell at rate 0.2 with flight timeouts)
// for every later cell on the simulation.
func (q *RetrySource) Trim() {
	if cap(q.pending) > max(len(q.attempts), trimFloor) {
		q.pending = nil
	}
}

// Step implements Injector: due retries first, in kill order, then the
// inner source's fresh arrivals. A refused retry (full source queue or
// bad node) stays pending and is re-attempted next step — mirroring the
// closed loop, which defers rather than drops.
func (q *RetrySource) Step(emit func(src, dst grid.NodeID) bool) {
	kept := q.pending[:0]
	for _, it := range q.pending {
		if it.due > q.step || !emit(it.src, it.dst) {
			kept = append(kept, it)
		}
	}
	q.pending = kept
	q.inner.Step(emit)
	q.step++
}

// Timeout schedules a re-offer of the killed request (src, dst) after the
// source's backoff expires; measured is the caller's phase attribution,
// echoed by PendingMeasured. Every Timeout counts as one retry.
func (q *RetrySource) Timeout(src, dst grid.NodeID, measured bool) {
	q.attempts[src]++
	due := q.step + backoffDelay(q.backoff, q.attempts[src], q.r)
	q.pending = append(q.pending, retryItem{src: src, dst: dst, due: due, measured: measured})
}

// Settle ends src's consecutive-timeout streak: one of its requests
// reached a terminal outcome other than a timeout, so the next timeout
// backs off from the base delay again (the closed loop resets the same
// way on Release).
func (q *RetrySource) Settle(src grid.NodeID) { q.attempts[src] = 0 }

// PendingMeasured returns the pending retries whose killed flight was
// attributed to the measurement window — the requests that will be
// dropped if injection closes before their backoff expires.
func (q *RetrySource) PendingMeasured() int {
	n := 0
	for _, it := range q.pending {
		if it.measured {
			n++
		}
	}
	return n
}
