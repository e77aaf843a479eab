package route

// Congested is the congestion-aware variant of the fault-information-based
// PCS router: Algorithm 3's fault handling, candidate classes and priority
// order are preserved exactly, but ties *inside* a class (several equally
// preferred directions, several spares) are broken by the lightest
// downstream load instead of the static policy. The load signal comes from
// Context.Load — the contention engine's per-node residency and
// per-directed-link pending depth — so the router combines the paper's
// limited-global fault records with purely local traffic state, in the
// spirit of adaptive fault-tolerant NoC routing (Stroobant et al.) and
// fat-tree resiliency routing (Gliksberg et al.).
//
// Determinism and fallback are structural:
//
//   - With Context.Load == nil the router delegates to Limited verbatim —
//     decision-for-decision identical (pinned by TestCongestedEqualsLimited*).
//   - With contention disabled every load reads zero, every candidate ties,
//     and the hysteresis keeps the baseline pick — again identical.
//   - Deviating from the baseline requires a strict load advantage of at
//     least Margin, so equal-load oscillation is impossible and the
//     decision is a pure function of (mesh, records, header, load view).

import (
	"fmt"

	"ndmesh/internal/grid"
)

// CongestionConfig tunes the congestion-aware tie-breaking. The zero value
// selects the defaults, so Congested{} is ready to use.
type CongestionConfig struct {
	// Margin is the hysteresis threshold: an alternative direction must
	// beat the baseline (load-oblivious) pick's downstream load score by at
	// least this much to be taken. Values < 1 mean 1 — a strict advantage
	// is always required, which is what pins Congested == Limited when all
	// loads are equal (in particular, all zero).
	Margin int
	// NodeWeight and LinkWeight weigh the two load signals in the score
	// score(d) = NodeWeight*Resident(neighbor(d)) + LinkWeight*LinkPending(u, d).
	// Values < 0 mean 0; both zero means both default to 1.
	NodeWeight, LinkWeight int
	// Eager consults the load on every decision. The default (false) is
	// stall-gated adaptivity: a message follows Limited's choice verbatim
	// until it personally loses a link arbitration (Message.Stalled), and
	// only then deviates to the lightest alternative. Stall-gating keeps
	// underloaded traffic byte-identical to Limited and avoids the classic
	// minimal-adaptive pathology of noise-driven deviation concentrating
	// uniform traffic; eager mode reacts earlier under smooth asymmetric
	// load at the price of that pathology.
	Eager bool
}

// CongestionPresetByName resolves a named tie-breaking profile, the
// user-facing alternative to the three raw numeric knobs:
//
//   - "off": load tie-breaking effectively disabled — the margin is set so
//     high no realizable load advantage clears it, pinning the router to
//     Limited's choices. (Zero weights would NOT do this: norm() maps the
//     all-zero config to the defaults, so "off" must win through the
//     margin.)
//   - "mild": the stall-gated defaults with a margin of 2 — a message
//     deviates only after personally stalling, and only for a clear load
//     advantage. Safe under uniform traffic.
//   - "aggressive": eager adaptivity at margin 1 with residency weighted
//     double — reacts before stalling and on the smallest advantage, at
//     the price of noise-driven deviation under uniform load.
func CongestionPresetByName(name string) (CongestionConfig, error) {
	switch name {
	case "off":
		return CongestionConfig{Margin: 1 << 30, NodeWeight: 1, LinkWeight: 1}, nil
	case "mild":
		return CongestionConfig{Margin: 2, NodeWeight: 1, LinkWeight: 1}, nil
	case "aggressive":
		return CongestionConfig{Margin: 1, NodeWeight: 2, LinkWeight: 1, Eager: true}, nil
	}
	return CongestionConfig{}, fmt.Errorf("route: unknown congestion preset %q (want off|mild|aggressive)", name)
}

// norm returns the config with defaults applied.
func (c CongestionConfig) norm() CongestionConfig {
	if c.Margin < 1 {
		c.Margin = 1
	}
	if c.NodeWeight < 0 {
		c.NodeWeight = 0
	}
	if c.LinkWeight < 0 {
		c.LinkWeight = 0
	}
	if c.NodeWeight == 0 && c.LinkWeight == 0 {
		c.NodeWeight, c.LinkWeight = 1, 1
	}
	return c
}

// Congested is Limited with load-aware tie-breaking; see the file comment.
type Congested struct {
	Cfg CongestionConfig
}

// Name implements Router.
func (Congested) Name() string { return "congested" }

// Decide implements Router.
//
//meshvet:noalloc
func (c Congested) Decide(ctx *Context, msg *Message) Decision {
	if ctx.Load == nil || (!c.Cfg.Eager && !msg.Stalled()) {
		return Limited{}.Decide(ctx, msg)
	}
	recs := recordsAt(ctx, msg.Cur)
	preferred, demoted, spares := classify(ctx, msg, recs)
	cfg := c.Cfg.norm()
	switch {
	case preferred != 0:
		return Decision{Move: true, Dir: lightest(ctx, cfg, msg.Cur, preferred, pickPreferred(ctx, msg, preferred))}
	case spares != 0:
		return Decision{Move: true, Dir: lightest(ctx, cfg, msg.Cur, spares, pickSpare(ctx, msg.Cur, spares, recs))}
	case demoted != 0:
		return Decision{Move: true, Dir: lightest(ctx, cfg, msg.Cur, demoted, pickPreferred(ctx, msg, demoted))}
	}
	return backtrackOrFail(msg)
}

// loadScore is the downstream congestion estimate of moving from u along d:
// the occupancy of the next router's input queue plus the queueing pressure
// observed on the link itself last step.
func loadScore(ctx *Context, cfg CongestionConfig, u grid.NodeID, d grid.Dir) int {
	score := 0
	if cfg.NodeWeight != 0 {
		score += cfg.NodeWeight * ctx.Load.Resident(ctx.M.Neighbor(u, d))
	}
	if cfg.LinkWeight != 0 {
		score += cfg.LinkWeight * ctx.Load.LinkPending(u, d)
	}
	return score
}

// lightest breaks the tie among one priority class: it keeps the baseline
// (Limited's) pick unless some alternative's load score undercuts it by at
// least cfg.Margin. The set is walked in ascending direction order, so
// strict improvement suffices for the lowest-index-wins determinism among
// equally light alternatives.
func lightest(ctx *Context, cfg CongestionConfig, u grid.NodeID, dirs grid.DirSet, base grid.Dir) grid.Dir {
	others := dirs.Remove(base)
	if others == 0 {
		return base
	}
	baseScore := loadScore(ctx, cfg, u, base)
	best, bestScore := base, baseScore
	for r := others; r != 0; r &= r - 1 {
		d := r.First()
		if s := loadScore(ctx, cfg, u, d); s < bestScore {
			best, bestScore = d, s
		}
	}
	if best != base && baseScore-bestScore >= cfg.Margin {
		return best
	}
	return base
}
