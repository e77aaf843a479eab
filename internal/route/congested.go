package route

// Congested is the congestion-aware variant of the fault-information-based
// PCS router: Algorithm 3's fault handling, candidate classes and priority
// order are preserved exactly, but ties *inside* a class (several equally
// preferred directions, several spares) are broken by the lightest
// downstream load instead of the lowest direction index. The load signal
// comes from Context.Load — the contention engine's per-node residency and
// per-directed-link pending depth — so the router combines the paper's
// limited-global fault records with purely local traffic state, in the
// spirit of adaptive fault-tolerant NoC routing (Stroobant et al.) and
// fat-tree resiliency routing (Gliksberg et al.).
//
// Determinism and fallback are structural:
//
//   - With Context.Load == nil the router delegates to Limited verbatim —
//     decision-for-decision identical (pinned by TestCongestedEqualsLimited*).
//   - Under the engine's free configuration no link is denied, so no
//     message is ever stalled and every decision is Limited's — again
//     identical.
//   - Deviating from the baseline requires a strict load advantage of at
//     least margin, so equal-load oscillation is impossible and the
//     decision is a pure function of (mesh, records, header, load view).

import "ndmesh/internal/grid"

// margin is the hysteresis threshold: an alternative direction must beat
// the baseline (load-oblivious) pick's downstream load score by at least
// this much to be taken. A strict advantage is what pins Congested ==
// Limited when all loads are equal (in particular, all zero).
const margin = 1

// Congested is Limited with load-aware tie-breaking; see the file comment.
type Congested struct{}

// Name implements Router.
func (Congested) Name() string { return "congested" }

// Decide implements Router. Adaptivity is stall-gated: a message follows
// Limited's choice verbatim until it personally loses a link arbitration
// (Message.Stalled), and only then deviates to the lightest alternative.
// Stall-gating keeps underloaded traffic byte-identical to Limited and
// avoids the classic minimal-adaptive pathology of noise-driven deviation
// concentrating uniform traffic.
//
//meshvet:noalloc TestCongestedStepAllocFree
func (Congested) Decide(ctx *Context, msg *Message) Decision {
	if ctx.Load == nil || !msg.Stalled() {
		return Limited{}.Decide(ctx, msg)
	}
	recs := recordsAt(ctx, msg.Cur)
	preferred, demoted, spares := classify(ctx, msg, recs)
	switch {
	case preferred != 0:
		return Decision{Move: true, Dir: lightest(ctx, msg.Cur, preferred, preferred.First())}
	case spares != 0:
		return Decision{Move: true, Dir: lightest(ctx, msg.Cur, spares, pickSpare(ctx, msg.Cur, spares, recs))}
	case demoted != 0:
		return Decision{Move: true, Dir: lightest(ctx, msg.Cur, demoted, demoted.First())}
	}
	return backtrackOrFail(msg)
}

// loadScore is the downstream congestion estimate of moving from u along d:
// the occupancy of the next router's input queue plus the queueing pressure
// observed on the link itself last step.
func loadScore(ctx *Context, u grid.NodeID, d grid.Dir) int {
	return ctx.Load.Resident(ctx.M.Neighbor(u, d)) + ctx.Load.LinkPending(u, d)
}

// lightest breaks the tie among one priority class: it keeps the baseline
// (Limited's) pick unless some alternative's load score undercuts it by at
// least margin. The set is walked in ascending direction order, so strict
// improvement suffices for the lowest-index-wins determinism among equally
// light alternatives.
func lightest(ctx *Context, u grid.NodeID, dirs grid.DirSet, base grid.Dir) grid.Dir {
	others := dirs.Remove(base)
	if others == 0 {
		return base
	}
	baseScore := loadScore(ctx, u, base)
	best, bestScore := base, baseScore
	for r := others; r != 0; r &= r - 1 {
		d := r.First()
		if s := loadScore(ctx, u, d); s < bestScore {
			best, bestScore = d, s
		}
	}
	if best != base && baseScore-bestScore >= margin {
		return best
	}
	return base
}
