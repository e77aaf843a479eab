package route

// This file holds the paper's definitions and theorems that tests check
// the protocol against: one step of Algorithm 3 as the reference
// composition of its parts. The engine runs those parts itself, and
// TestStepMatchesAdvanceGated holds it to a loop of AdvanceGated calls.

import "ndmesh/internal/grid"

// Gate arbitrates one link traversal under the contention model: it is
// asked whether the message at `from` may cross the directed link along
// `dir` this step. Returning false stalls the message for the step (its
// position and used-direction lists are untouched; see AdvanceGated for
// what it decides next step). A nil Gate grants every traversal — the
// contention-free model.
type Gate func(from grid.NodeID, dir grid.Dir) bool

// AdvanceGated performs one step of the routing process: one decision and
// one hop (Figure 7's routing decision + message sending) under link
// arbitration. It returns true if the message is still in flight
// afterwards. The chosen traversal (forward or backward) only executes if
// the gate grants the link (a nil gate grants every one); otherwise the
// message waits in place. A waiting message re-decides whenever status or
// information changed — the mesh version or the store version moved since
// it stalled — so a stalled preferred direction can be abandoned for a
// spare if the fault picture changes while queued. While neither moved, a
// fresh decision would equal the one it stalled on, and a load-oblivious
// router (see LoadOblivious) is not asked again: the message re-asks the
// gate for the decision it kept. A header is advanced under one Context
// throughout.
//
// AdvanceGated is the composition of the step's parts — Plan, Link, then
// Wait or Commit — which a caller stepping many messages under one state
// (the engine) uses directly, taking StateKey and LoadOblivious once.
//
//meshvet:noalloc TestRecycledMessageAllocFree
func AdvanceGated(ctx *Context, r Router, msg *Message, gate Gate) bool {
	d, ok := Plan(ctx, r, msg, StateKey(ctx), LoadOblivious(r))
	if !ok {
		return false
	}
	if dir, crosses := msg.Link(d); crosses && gate != nil && !gate(msg.Cur, dir) {
		msg.Wait()
		return true
	}
	return Commit(ctx, msg, d)
}
