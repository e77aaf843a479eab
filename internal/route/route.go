// Package route implements the paper's fault-information-based PCS routing
// (Algorithm 3) and the three baselines it is evaluated against:
//
//   - Limited: Algorithm 3 — direction priority preferred, spare (along the
//     block), preferred-but-detour, incoming; per-node used-direction lists
//     carried in the header; backtracking at disabled nodes; information
//     taken only from the node-local record store (the limited-global
//     model).
//   - Blind: the same PCS backtracking search with no fault information at
//     all (only one-hop status sensing) — the "local information" extreme.
//   - Oracle: global-information routing: every node knows all faulty
//     blocks; the next hop follows a globally shortest path over enabled
//     nodes, recomputed whenever the topology changes — the "traditional
//     model" extreme (routing tables at every node).
//   - DOR: plain dimension-order (e-cube) routing, the fault-intolerant
//     baseline: it fails on the first bad node in its way.
//   - Congested: Limited with congestion-aware tie-breaking — among the
//     fault-safe directions of equal Algorithm 3 priority it prefers the
//     one with the lightest downstream load (Context.Load), the first
//     router whose decisions are dynamic in traffic, not just in faults
//     (see congested.go).
//
// Routing messages advance one hop per step of the execution model; the
// Decide/Apply split lets the engine interleave decisions with the λ
// information rounds exactly as Figure 7 prescribes.
//
// Contracts: Decide never mutates the message — AdvanceGated commits a
// Decision to the header. Routers are stateless per decision and a
// Context holds no scratch: one-hop sensing is one word, the mesh's open set
// (mesh.Mesh.Open: the directions with an Enabled neighbor), so Algorithm
// 3's candidate classes are three DirSets computed by mask arithmetic and
// passed by value (see classify), and a decision allocates nothing.
// Coordinates are views into the shape's table (grid.Shape.CoordView): no
// path decodes an id. The one exception to statelessness is Oracle, the
// routing table it models: one distance field per destination, all dropped
// when the mesh asked about or its version moves.
//
// A decision is therefore a pure function of the mesh, the record store and
// the header — and, for Congested alone, of the load view and the stall
// flag. Ties among equally preferred directions always go to the lowest
// direction index. A stall writes none of those header fields, so a message
// that lost arbitration keeps the decision it stalled on for as long as the
// mesh version and the store version hold (see AdvanceGated), and re-decides
// the step either of them moves.
//
// The header (Message) is laid out for the step loop: the fields a stalled
// step reads — position, terminal flags, the current node's used-direction
// set, the kept decision and its key — sit together in the struct's first
// 48 bytes, and the used-direction lists are one flat node-keyed table beside
// the path stack instead of a map (see visit). Its path stack and table come
// from an Arena carved per batch of headers (see Arena).
package route

import (
	"fmt"
	"math/bits"

	"ndmesh/internal/boundary"
	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
)

// Policy is ignored: ties among directions of equal priority always go to
// the smallest direction index. It and LowestAxis are kept only because
// bench/layers.go names them in a Context literal.
type Policy uint8

// LowestAxis is the only Policy value.
const LowestAxis Policy = 0

// LoadView exposes the traffic state a congestion-aware router may consult
// next to the fault records: per-node residency (how many messages occupy a
// router's input queue) and per-directed-link pending depth (how many
// traversals stalled on the link last step). Both are node-local signals —
// a router only ever queries its own node and its immediate neighbors, so
// the information model stays limited. The engine's contention mode
// implements it; outside contention mode both signals are zero, which makes
// every load-aware tie-break collapse to its load-oblivious baseline.
type LoadView interface {
	// Resident returns the number of active messages at the node.
	Resident(id grid.NodeID) int
	// LinkPending returns how many traversals stalled on the directed link
	// (from, dir) during the previous step — the link's queueing pressure.
	LinkPending(from grid.NodeID, dir grid.Dir) int
}

// Context is the information a router may consult: the fabric (one-hop
// status sensing is always allowed), the node-local record store (nil for
// the blind router) and the load view (nil or zero outside contention
// mode).
type Context struct {
	M     *mesh.Mesh
	Store *info.Store
	Load  LoadView
	// Policy is ignored; kept only because bench/layers.go assigns it.
	Policy Policy
}

// Decision is the outcome of one routing decision.
type Decision struct {
	// Dir is the chosen outgoing direction (valid when Move).
	Dir grid.Dir
	// Move means forward one hop along Dir.
	Move bool
	// Backtrack means return to the previous node on the path.
	Backtrack bool
	// Fail means the destination is unreachable (message backtracked to
	// the source with no unused outgoing direction).
	Fail bool
}

// Router chooses an outgoing direction for a message at its current node.
type Router interface {
	// Name identifies the router in experiment tables.
	Name() string
	// Decide inspects the message's current node and header and picks an
	// action. It must not mutate the message.
	Decide(ctx *Context, msg *Message) Decision
}

// Message is a PCS path-setup message: destination plus the header state
// Algorithm 3 requires — the path stack for backtracking and the list of
// used directions for each forwarding node along the path.
type Message struct {
	Src, Dst grid.NodeID
	Cur      grid.NodeID
	// Incoming is the direction of the last move (InvalidDir at start).
	Incoming grid.Dir

	// stalled records that the most recent step was a gate denial: the
	// message wanted a link and lost arbitration. Congestion-aware routers
	// use it as the adaptivity trigger — a message deviates from the
	// load-oblivious choice only after personally experiencing blocking,
	// which keeps underloaded routing byte-identical to Limited and stops
	// noise-driven herding. Always false outside contention mode.
	stalled bool

	// Arrived, Unreachable, Lost, TimedOut are the terminal states. Lost
	// marks the pathological dynamic case where the backtrack target itself
	// failed. TimedOut marks a flight the contention engine killed back to
	// its source after stalling in place past the configured timeout — the
	// deadlock-escape path; routers never set it themselves.
	Arrived, Unreachable, Lost, TimedOut bool

	// strayed records that some hop did not shrink the distance to Dst (a
	// spare hop or a backtrack). Until then every hop did, so the message
	// cannot be anywhere it has been and entering a node needs no lookup.
	strayed bool

	// slot is Cur's index in visited (-1 while Cur has no entry yet) and
	// used a copy of that entry's set, refreshed whenever Cur changes: a
	// decision reads the used directions from the header's own cache line,
	// and a stalled message (Cur unchanged) never looks anything up.
	slot int32
	used grid.DirSet
	// toward is the set of directions that shrink the distance from Cur to
	// Dst, set on the first step and kept up by every hop on the axis it
	// crossed (see retoward); 0 until then, and at Dst.
	toward grid.DirSet

	// kept is the decision of the message's last step and key the versions
	// of the mesh and the store it was made against (see stateKey). After a
	// stall they let the next step skip the decision (see keeps).
	kept Decision
	key  uint64

	// Hops counts every link traversal (forward and backward); Backtracks
	// counts the backward ones. Steps counts decision steps including
	// waits. Waits counts the steps a contention gate stalled the message
	// (always 0 outside contention mode).
	Hops, Backtracks, Steps, Waits int

	path    []hop
	visited []visit
}

// visit is one entry of the header's used-direction table: a node the
// message has left by a forward move, and every direction it has tried from
// there. The table is keyed by node, not by path position — a node re-entered
// after a backtrack (from any neighbor) finds its earlier entry — and is a
// flat slice searched linearly: a header visits tens of nodes, where a scan
// of 8-byte entries beats a map probe, and Reset keeps its capacity.
type visit struct {
	node grid.NodeID
	used grid.DirSet
}

// hop is one path-stack entry: the table slot of the node a forward move
// left and the direction it took, so a backtrack pops its target, the link
// it crosses and the target's used set in O(1).
type hop struct {
	slot int32
	dir  grid.Dir
}

// NewMessage builds a path-setup message from src to dst.
func NewMessage(src, dst grid.NodeID) *Message {
	msg := &Message{}
	msg.Reset(src, dst)
	return msg
}

// Reset rewinds the message to a fresh injection from src to dst, keeping
// the capacity of the path stack and the used-direction table so a recycled
// message allocates nothing on its next flight.
func (msg *Message) Reset(src, dst grid.NodeID) {
	*msg = Message{Src: src, Dst: dst, Cur: src, Incoming: grid.InvalidDir, slot: -1,
		path: msg.path[:0], visited: msg.visited[:0]}
}

// maxReserve bounds a header's share of an Arena, so a flight on a very
// large mesh does not pin kilobytes it will rarely use.
const maxReserve = 64

// Arena is the path-stack and used-direction-table storage of a batch of
// headers: two slices allocated once and carved into equal shares, so a
// fresh header costs no allocation of its own.
type Arena struct {
	path    []hop
	visited []visit
	share   int
}

// NewArena allocates storage for n headers of flights on the given shape.
// A header's share is the power of two at or above the shape's diameter
// (where growth by doubling would leave it anyway), at most maxReserve
// entries, so a fresh header does not regrow hop by hop inside the step.
func NewArena(shape *grid.Shape, n int) Arena {
	share := min(maxReserve, 1<<bits.Len(uint(shape.Diameter()-1)))
	return Arena{path: make([]hop, n*share), visited: make([]visit, n*share), share: share}
}

// Carve hands msg the arena's next share as its empty path stack and
// used-direction table. A share is capped at its end, so a header never
// grows into its neighbour's: a walk that outlasts it grows by append, and
// Reset keeps whatever capacity the header ends up with.
func (a *Arena) Carve(msg *Message) {
	msg.path, msg.visited = a.path[:0:a.share], a.visited[:0:a.share]
	a.path, a.visited = a.path[a.share:], a.visited[a.share:]
}

// Stalled reports whether the message's most recent step was a contention
// stall (it lost link arbitration and waited in place).
func (msg *Message) Stalled() bool { return msg.stalled }

// Done reports whether the message reached a terminal state.
func (msg *Message) Done() bool {
	return msg.Arrived || msg.Unreachable || msg.Lost || msg.TimedOut
}

// Used returns the used-direction set recorded at node id.
func (msg *Message) Used(id grid.NodeID) grid.DirSet {
	if i := msg.find(id); i >= 0 {
		return msg.visited[i].used
	}
	return 0
}

// find returns id's slot in the used-direction table, or -1.
//
//meshvet:noalloc
func (msg *Message) find(id grid.NodeID) int32 {
	for i := range msg.visited {
		if msg.visited[i].node == id {
			return int32(i)
		}
	}
	return -1
}

// enter makes id (at table slot slot, -1 if none) the current node.
//
//meshvet:noalloc
func (msg *Message) enter(id grid.NodeID, slot int32) {
	msg.Cur, msg.slot, msg.used = id, slot, 0
	if slot >= 0 {
		msg.used = msg.visited[slot].used
	}
}

// PathLen returns the current path-stack length (hops from source along the
// currently held path).
func (msg *Message) PathLen() int { return len(msg.path) }

// String summarizes the message state.
func (msg *Message) String() string {
	state := "active"
	switch {
	case msg.Arrived:
		state = "arrived"
	case msg.Unreachable:
		state = "unreachable"
	case msg.Lost:
		state = "lost"
	case msg.TimedOut:
		state = "timed-out"
	}
	return fmt.Sprintf("msg %d->%d at %d (%s, hops=%d backtracks=%d steps=%d)",
		msg.Src, msg.Dst, msg.Cur, state, msg.Hops, msg.Backtracks, msg.Steps)
}

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
// router (see loadOblivious) is not asked again: the message re-asks the
// gate for the decision it kept. A header is advanced under one Context
// throughout.
//
//meshvet:noalloc
func AdvanceGated(ctx *Context, r Router, msg *Message, gate Gate) bool {
	if !msg.beginStep(ctx.M.Shape()) {
		return false
	}
	key := stateKey(ctx)
	d := msg.kept
	if !msg.keeps(r, key) {
		d = r.Decide(ctx, msg)
	}
	msg.kept, msg.key = d, key
	return commitDecision(ctx, msg, d, gate)
}

// stateKey sums the versions of the context's mesh and record store. Both
// only ever advance, so the sum is unchanged exactly when neither moved.
//
//meshvet:noalloc
func stateKey(ctx *Context) uint64 {
	k := ctx.M.Version()
	if ctx.Store != nil {
		k += ctx.Store.Version()
	}
	return k
}

// keeps reports whether msg's kept decision is the one r would make now:
// the last step was a gate denial (so the header fields a decision reads
// are as they were), the mesh and the store are as they were, and r decides
// from nothing else.
//
//meshvet:noalloc
func (msg *Message) keeps(r Router, key uint64) bool {
	return msg.stalled && msg.key == key && loadOblivious(r)
}

// beginStep opens one step of an in-flight message: it counts the step and
// reports whether there is a decision to commit (false once terminal, or on
// arrival). The first step fills in the header's toward set.
//
//meshvet:noalloc
func (msg *Message) beginStep(shape *grid.Shape) bool {
	if msg.Done() {
		return false
	}
	msg.Steps++
	if msg.Cur == msg.Dst {
		msg.Arrived = true
		return false
	}
	if msg.toward == 0 {
		msg.toward = towardOf(shape, msg.Cur, msg.Dst)
	}
	return true
}

// commitDecision executes one decision under link arbitration. Every
// physical link traversal — forward moves and backward moves alike — asks
// the gate; the one Backtrack shape that crosses no link (an empty path
// stack, the terminal unreachable transition of applyBacktrack) has
// nothing to arbitrate and deliberately consults no gate, which
// TestBacktrackEmptyPathConsultsNoGate pins.
//
//meshvet:noalloc
func commitDecision(ctx *Context, msg *Message, d Decision, gate Gate) bool {
	switch {
	case d.Fail:
		msg.Unreachable = true
		return false
	case d.Backtrack:
		if msg.PathLen() == 0 {
			// Not a traversal: applyBacktrack on an empty stack only marks
			// the message unreachable, so no link budget may be consumed
			// and no stall may be recorded.
			msg.applyBacktrack(ctx)
			msg.stalled = false
			return !msg.Done()
		}
		if gate != nil && !gate(msg.Cur, msg.path[len(msg.path)-1].dir.Opposite()) {
			msg.Waits++
			msg.stalled = true
			return true
		}
		msg.applyBacktrack(ctx)
		msg.stalled = false
	case d.Move:
		if gate != nil && !gate(msg.Cur, d.Dir) {
			msg.Waits++
			msg.stalled = true
			return true
		}
		msg.applyMove(ctx, d.Dir)
		msg.stalled = false
	}
	if msg.Cur == msg.Dst {
		msg.Arrived = true
		return false
	}
	return !msg.Done()
}

//meshvet:noalloc
func (msg *Message) applyMove(ctx *Context, dir grid.Dir) {
	next := ctx.M.Neighbor(msg.Cur, dir)
	if next == grid.InvalidNode {
		// A router must never pick an off-mesh direction; treat as lost to
		// surface the bug in tests rather than panic in experiments.
		msg.Lost = true
		return
	}
	if msg.slot < 0 {
		msg.slot = int32(len(msg.visited))
		msg.visited = append(msg.visited, visit{node: msg.Cur})
	}
	msg.visited[msg.slot].used = msg.used.Add(dir)
	msg.path = append(msg.path, hop{slot: msg.slot, dir: dir})
	slot := int32(-1)
	if msg.strayed = msg.strayed || !msg.toward.Has(dir); msg.strayed {
		slot = msg.find(next)
	}
	msg.retoward(ctx.M.Shape(), dir, next)
	msg.enter(next, slot)
	msg.Incoming = dir
	msg.Hops++
}

//meshvet:noalloc
func (msg *Message) applyBacktrack(ctx *Context) {
	if len(msg.path) == 0 {
		msg.Unreachable = true
		return
	}
	back := msg.path[len(msg.path)-1]
	prev := msg.visited[back.slot].node
	msg.path = msg.path[:len(msg.path)-1]
	if ctx.M.Status(prev) == mesh.Faulty {
		// The node we set this path segment through has failed under us:
		// the partial path is torn down and the message is lost (the PCS
		// source would time out and retry; we account it separately).
		msg.Lost = true
		return
	}
	// The physical move back: the new incoming direction is the reverse of
	// the forward move that set this path segment up.
	msg.Incoming = back.dir.Opposite()
	msg.strayed = true
	msg.retoward(ctx.M.Shape(), msg.Incoming, prev)
	msg.enter(prev, back.slot)
	msg.Hops++
	msg.Backtracks++
}

// retoward updates the toward set for a hop along dir onto next, which
// changes Cur's coordinate on dir's axis alone. A hop that shrank the
// distance keeps dir unless it closed the axis; any other hop opened the
// axis (or widened it) on dir's side, so the way back shrinks it.
//
//meshvet:noalloc
func (msg *Message) retoward(shape *grid.Shape, dir grid.Dir, next grid.NodeID) {
	switch a := dir.Axis(); {
	case !msg.toward.Has(dir):
		msg.toward = msg.toward.Add(dir.Opposite())
	case shape.CoordView(next)[a] == shape.CoordView(msg.Dst)[a]:
		msg.toward = msg.toward.Remove(dir)
	}
}

// towardOf returns the directions that shrink the distance from u to dst.
func towardOf(shape *grid.Shape, u, dst grid.NodeID) grid.DirSet {
	dc := shape.CoordView(dst)
	var toward grid.DirSet
	for a, v := range shape.CoordView(u) {
		switch {
		case v < dc[a]:
			toward = toward.Add(grid.DirPlus(a))
		case v > dc[a]:
			toward = toward.Add(grid.DirMinus(a))
		}
	}
	return toward
}

// ---------------------------------------------------------------------------
// Limited: Algorithm 3 with the limited-global information model.

// Limited is the fault-information-based PCS router of Algorithm 3.
type Limited struct{}

// Name implements Router.
func (Limited) Name() string { return "limited" }

// Decide implements Algorithm 3 over the block records stored at the
// current node.
//
//meshvet:noalloc
func (Limited) Decide(ctx *Context, msg *Message) Decision {
	return algorithm3(ctx, msg, recordsAt(ctx, msg.Cur))
}

// algorithm3 is Algorithm 3 given the records the current node knows:
//  1. If the current node is disabled (or faulty under us), backtrack.
//  2. Pick the unused outgoing direction with the highest priority:
//     preferred, spare (along the block), preferred-but-detour, incoming.
//  3. With no unused outgoing direction, backtrack.
//  4. Backtracked to the source with nothing left: unreachable.
//
//meshvet:noalloc
func algorithm3(ctx *Context, msg *Message, recs []info.Record) Decision {
	preferred, demoted, spares := classify(ctx, msg, recs)
	switch {
	case preferred != 0:
		return Decision{Move: true, Dir: preferred.First()}
	case spares != 0:
		return Decision{Move: true, Dir: pickSpare(ctx, msg.Cur, spares, recs)}
	case demoted != 0:
		return Decision{Move: true, Dir: demoted.First()}
	}
	return backtrackOrFail(msg)
}

// classify runs the candidate classification of Algorithm 3's step 2, shared
// by Limited, Congested and Blind: the fault-safe unused outgoing directions
// split by priority class, under the records they are given (Blind has none,
// so nothing is ever demoted and every spare ranks equal); Congested differs
// only in how ties inside a class are broken. One-hop sensing is one word —
// the mesh's open set — so the partition is mask arithmetic, and only a node
// that holds records looks at its neighbors at all. A disabled/faulty current
// node has no candidates (the backtrack case).
//
//meshvet:noalloc
func classify(ctx *Context, msg *Message, recs []info.Record) (preferred, demoted, spares grid.DirSet) {
	m := ctx.M
	u := msg.Cur
	if m.Status(u).Bad() {
		return 0, 0, 0
	}
	shape := m.Shape()
	toward := msg.toward
	if toward == 0 { // a header asked before its first step
		toward = towardOf(shape, u, msg.Dst)
	}
	cand := m.Open(u) &^ msg.used
	preferred = cand & toward
	spares = cand &^ toward
	if msg.Incoming != grid.InvalidDir {
		// Going back is the lowest priority: the backtrack case.
		spares = spares.Remove(msg.Incoming.Opposite())
	}
	if len(recs) > 0 {
		dc := shape.CoordView(msg.Dst)
		for r := preferred; r != 0; r &= r - 1 {
			d := r.First()
			if demotedByRecords(ctx.Store, recs, shape.CoordView(m.Neighbor(u, d)), dc) {
				demoted = demoted.Add(d)
			}
		}
		preferred &^= demoted
	}
	return preferred, demoted, spares
}

func backtrackOrFail(msg *Message) Decision {
	if msg.PathLen() == 0 {
		return Decision{Fail: true}
	}
	return Decision{Backtrack: true}
}

// recordsAt returns the block records stored at node u (nil without store).
func recordsAt(ctx *Context, u grid.NodeID) []info.Record {
	if ctx.Store == nil {
		return nil
	}
	return ctx.Store.At(u)
}

// demotedByRecords applies the critical-routing rule: a preferred step onto
// w is demoted to preferred-but-detour when, per some stored block record,
// w lies in the block's dangerous shadow while the destination is trapped
// beyond the opposite surface (Section 2.2).
func demotedByRecords(store *info.Store, recs []info.Record, wc, dc grid.Coord) bool {
	for _, r := range recs {
		if boundary.Demotes(store.Box(r.Block), wc, dc) {
			return true
		}
	}
	return false
}

// pickSpare selects a spare direction "along with the block": among the
// axes where the current node sits inside a recorded block's span, prefer
// the direction with the shortest run to exit the span (the fastest way
// around the block); axes outside any span rank last, and ties go to the
// lowest direction.
func pickSpare(ctx *Context, u grid.NodeID, dirs grid.DirSet, recs []info.Record) grid.Dir {
	const inf = int(^uint(0) >> 1)
	best, bestRank := dirs.First(), inf
	if len(recs) == 0 {
		return best
	}
	uc := ctx.M.Shape().CoordView(u)
	for r := dirs; r != 0; r &= r - 1 {
		d := r.First()
		a := d.Axis()
		for _, rec := range recs {
			box := ctx.Store.Box(rec.Block)
			if !box.ContainsOn(a, uc[a]) {
				continue
			}
			run := uc[a] - (box.Lo[a] - 1)
			if d.Positive() {
				run = box.Hi[a] + 1 - uc[a]
			}
			if run < bestRank {
				best, bestRank = d, run
			}
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Blind: PCS backtracking with no fault information.

// Blind is Algorithm 3 stripped of the information model: only one-hop
// status sensing guides it, so it walks into dangerous areas and pays for
// them with backtracking.
type Blind struct{}

// Name implements Router.
func (Blind) Name() string { return "blind" }

// Decide implements Router: Algorithm 3 with no records.
//
//meshvet:noalloc
func (Blind) Decide(ctx *Context, msg *Message) Decision {
	return algorithm3(ctx, msg, nil)
}

// ---------------------------------------------------------------------------
// Oracle: global information.

// Oracle is the traditional global-information model — a routing table over
// the exact enabled topology, rebuilt when it changes — and follows a
// globally shortest path. It is that table: the BFS distance field of every
// destination asked for since the mesh last changed, each computed on first
// use. A field is a pure function of (enabled set, destination), so one
// Oracle serves any flights on any meshes: every field is dropped at once
// when the mesh asked about or its version moves, or past fieldBudget. Its
// information cost is charged as a full-network update per change (see the
// experiment harness).
type Oracle struct {
	m       *mesh.Mesh
	version uint64
	// row[dst] is 1 + the index of dst's field in dist, 0 while not computed.
	row []int32
	// dist holds the fields back to back, NumNodes entries each.
	dist  []int32
	queue []grid.NodeID
}

// fieldBudget caps the distance entries an Oracle holds (4 MiB of int32). A
// full table is dropped and refills: never more BFS than one per decision.
const fieldBudget = 1 << 20

// Name implements Router.
func (o *Oracle) Name() string { return "oracle" }

// unreachableDist marks nodes with no enabled path to the destination.
const unreachableDist = int32(-1)

// Decide implements Router: step to any neighbor strictly closer to the
// destination in the current enabled-subgraph metric.
func (o *Oracle) Decide(ctx *Context, msg *Message) Decision {
	m := ctx.M
	if m.Status(msg.Cur).Bad() {
		return backtrackOrFail(msg)
	}
	dist := o.field(m, msg.Dst)
	du := dist[msg.Cur]
	if du == unreachableDist {
		return Decision{Fail: true}
	}
	bestDir := grid.InvalidDir
	var bestDist int32 = du
	for r := m.Open(msg.Cur); r != 0; r &= r - 1 {
		dir := r.First()
		if dn := dist[m.Neighbor(msg.Cur, dir)]; dn != unreachableDist && dn < bestDist {
			bestDist, bestDir = dn, dir
		}
	}
	if bestDir == grid.InvalidDir {
		return Decision{Fail: true}
	}
	return Decision{Move: true, Dir: bestDir}
}

// field returns dst's BFS distance field over m's enabled nodes, computing
// it on the first ask since m last changed. The arena is allocated twice at
// most: one field for the first destination — with row and queue, and the
// router value itself, the 4 allocs a Simulation.Route("oracle") pays — and
// the budget's capacity for the second.
func (o *Oracle) field(m *mesh.Mesh, dst grid.NodeID) []int32 {
	n := m.NumNodes()
	if o.m != m || o.version != m.Version() {
		if len(o.row) != n {
			o.row, o.dist, o.queue = make([]int32, n), nil, make([]grid.NodeID, 0, n)
		}
		clear(o.row)
		o.m, o.version, o.dist = m, m.Version(), o.dist[:0]
	}
	if f := int(o.row[dst]); f > 0 {
		return o.dist[(f-1)*n : f*n]
	}
	if len(o.dist) == cap(o.dist) { // no room for dst's field
		switch size := min(n, fieldBudget/n) * n; {
		case len(o.dist) == 0:
			o.dist = make([]int32, 0, n)
		case len(o.dist) < size:
			o.dist = append(make([]int32, 0, size), o.dist...)
		default:
			clear(o.row)
			o.dist = o.dist[:0]
		}
	}
	f := len(o.dist)
	o.dist = o.dist[:f+n]
	o.row[dst] = int32(f/n + 1)
	dist := o.dist[f:]
	for i := range dist {
		dist[i] = unreachableDist
	}
	o.queue = o.queue[:0]
	if m.Status(dst) == mesh.Enabled {
		dist[dst] = 0
		o.queue = append(o.queue, dst)
	}
	for head := 0; head < len(o.queue); head++ {
		cur := o.queue[head]
		for r := m.Open(cur); r != 0; r &= r - 1 { // Open's members are Enabled
			if nb := m.Neighbor(cur, r.First()); dist[nb] == unreachableDist {
				dist[nb] = dist[cur] + 1
				o.queue = append(o.queue, nb)
			}
		}
	}
	return dist
}

// ---------------------------------------------------------------------------
// DOR: dimension-order routing (fault-intolerant baseline).

// DOR resolves offsets axis by axis; it declares failure as soon as the
// next hop is not enabled. It quantifies what fault tolerance buys.
type DOR struct{}

// Name implements Router.
func (DOR) Name() string { return "dor" }

// Decide implements Router.
//
//meshvet:noalloc
func (DOR) Decide(ctx *Context, msg *Message) Decision {
	m := ctx.M
	if m.Status(msg.Cur).Bad() {
		return Decision{Fail: true}
	}
	shape := m.Shape()
	uc, dc := shape.CoordView(msg.Cur), shape.CoordView(msg.Dst)
	for a := 0; a < shape.Dims(); a++ {
		if uc[a] == dc[a] {
			continue
		}
		dir := grid.DirPlus(a)
		if uc[a] > dc[a] {
			dir = grid.DirMinus(a)
		}
		if !m.Open(msg.Cur).Has(dir) {
			return Decision{Fail: true}
		}
		return Decision{Move: true, Dir: dir}
	}
	return Decision{Fail: true} // already at destination: AdvanceGated handles it
}

// loadOblivious reports whether r decides from the mesh, the record store
// and the header fields a stall leaves alone, and from nothing else — so a
// decision it made before a stall is the one it would make after, while the
// mesh and store versions hold. That is every ByName router but congested,
// which reads Context.Load and Message.Stalled. Oracle's table is a pure
// function of the mesh.
//
//meshvet:noalloc
func loadOblivious(r Router) bool {
	switch r.(type) {
	case Limited, Blind, DOR, *Oracle:
		return true
	}
	return false
}

// ByName returns a fresh router by experiment name.
func ByName(name string) (Router, error) {
	switch name {
	case "limited":
		return Limited{}, nil
	case "congested":
		return Congested{}, nil
	case "blind":
		return Blind{}, nil
	case "oracle":
		return &Oracle{}, nil
	case "dor":
		return DOR{}, nil
	default:
		return nil, fmt.Errorf("route: unknown router %q", name)
	}
}
