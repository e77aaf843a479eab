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
// Routing messages advance one hop per step of the execution model. A step
// is AdvanceGated, which is the composition of its parts: Plan opens the
// step and decides (or takes the kept decision, below), Message.Link names
// the link the decision crosses, and the gate's verdict on that link ends
// the step in Message.Wait or Commit. The engine runs the parts itself, so
// it takes the step's state key once, after Figure 7's λ information rounds,
// and calls its gate directly.
//
// Contracts: Decide never mutates the message — Commit writes a Decision to
// the header. Routers are stateless per decision and a Context holds no
// scratch: one-hop sensing is one word, the mesh's open set (mesh.Mesh.Open:
// the directions with an Enabled neighbor), so Algorithm 3's candidate
// classes are three DirSets computed by mask arithmetic and passed by value
// (see classify), and a decision allocates nothing.
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
// mesh version and the store version hold, and re-decides the step either of
// them moves (see Plan). Algorithm 3's common case — an enabled node holding
// no record, with an unused open direction toward the destination — is the
// first case of algorithm3, decided before any classification.
//
// The header (Message) is laid out for the step loop: the fields a stalled
// step reads — position, terminal flags, the current node's used-direction
// set, the kept decision and its key — sit together in the struct's first
// 48 bytes. The path stack is one direction, one byte, per hop. While every
// hop has shrunk the distance to the destination that is the whole header:
// each node on the path was tried along its path hop and nothing else. The
// first spare move or backtrack strays the message and materializes the
// used-direction lists as one flat node-keyed table (see visit and
// materialize), in the order a table written hop by hop would hold, so the
// form a header takes changes no decision. Path stacks are equal shares of
// chunks, tables are lent by a chunk.Pool, and either grows into a larger
// block of the same chunks (see Tables).
package route

import (
	"fmt"
	"math/bits"
	"slices"

	"ndmesh/internal/boundary"
	"ndmesh/internal/chunk"
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
// the information model stays limited. The engine implements it. Under the
// engine's free configuration no link is denied, so no message stalls and a
// stall-gated load-aware router decides as its load-oblivious baseline does.
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
// used directions for each forwarding node along the path, held by the
// stack alone until the message strays.
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
	// noise-driven herding. Always false under a gate that denies nothing.
	stalled bool

	// Arrived, Unreachable, Lost, TimedOut are the terminal states. Lost
	// marks the pathological dynamic case where the backtrack target itself
	// failed. TimedOut marks a flight the contention engine killed back to
	// its source after stalling in place past the configured timeout — the
	// deadlock-escape path; routers never set it themselves.
	Arrived, Unreachable, Lost, TimedOut bool

	// strayed records that some hop did not shrink the distance to Dst (a
	// spare hop or a backtrack). Until then every hop did, so the message
	// cannot be anywhere it has been: entering a node needs no lookup, and
	// the header is its path stack alone (see materialize).
	strayed bool

	// slot is Cur's index in the table (-1 while Cur has no entry yet) and
	// used a copy of that entry's set, refreshed whenever Cur changes: a
	// decision reads the used directions from the header's own cache line,
	// and a stalled message (Cur unchanged) never looks anything up. Before
	// the message strays both stay at their fresh values: Cur has never been
	// left, so nothing was tried there.
	slot int32
	used grid.DirSet
	// toward is the set of directions that shrink the distance from Cur to
	// Dst, set on the first step and kept up by every hop on the axis it
	// crossed (see retoward); 0 until then, and at Dst.
	toward grid.DirSet

	// kept is the decision of the message's last step and key the versions
	// of the mesh and the store it was made against (see StateKey). After a
	// stall they let the next step skip the decision (see Plan).
	kept Decision
	key  uint64

	// Hops counts every link traversal (forward and backward); Backtracks
	// counts the backward ones. Steps counts decision steps including
	// waits. Waits counts the steps a contention gate stalled the message
	// (always 0 under a gate that denies nothing).
	Hops, Backtracks, Steps, Waits int

	// path is the path stack: the direction of each forward move on the
	// path held from Src, one byte a hop. The top hop always ends at Cur, so
	// a backtrack's target is Cur's neighbor against it.
	path []grid.Dir
	// table holds the used-direction table, nil until the message strays
	// (see materialize): a slot on loan from tables, the storage that carved
	// path, or the header's own when it has no tables.
	tables *Tables
	table  *[]visit
}

// visit is one entry of the header's used-direction table: a node the
// message has left by a forward move, and every direction it has tried from
// there. The table is keyed by node, not by path position — a node re-entered
// after a backtrack (from any neighbor) finds its earlier entry — and is a
// flat slice searched linearly, which Reset empties keeping its capacity.
// Only a message that has strayed has one: before that each node on the path
// was tried along exactly its path hop, which the stack already says.
type visit struct {
	node grid.NodeID
	used grid.DirSet
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
		path: msg.path[:0], tables: msg.tables, table: msg.table}
	if msg.table != nil {
		*msg.table = (*msg.table)[:0]
	}
}

// Release hands the message's used-direction table back to the pool it was
// borrowed from, emptied, so a recycled header holds its path stack alone.
// A message with no pool keeps its table.
//
//meshvet:noalloc TestFaultProcessStepAllocFree
func (msg *Message) Release() {
	if t := msg.tables; t != nil && msg.table != nil {
		*msg.table = (*msg.table)[:0]
		t.lent.Put(msg.table)
		msg.table = nil
	}
}

// Tables is the header storage of a run of flights (an engine's): it carves
// each header's path stack, and lends used-direction tables from a
// chunk.Pool. A header borrows a table when it first strays and its owner
// returns it with Release when the flight is recycled, so the tables alive
// are as many as the flights that have strayed at once. A stack or table
// that outgrows its block moves to one twice the size, carved from the same
// chunks, and keeps it across Reset and Release.
type Tables struct {
	share  int                    // a fresh header's stack capacity
	dirs   chunk.Carver[grid.Dir] // path stacks
	visits chunk.Carver[visit]    // the tables' entries
	lent   chunk.Pool[[]visit]    // the tables, each emptied on its return
}

// NewTables returns the header storage of flights on the given shape, its
// first chunks sized for n headers' stacks, a quarter as many table entries
// and a quarter as many tables (few flights stray; later chunks double, see
// internal/chunk); it allocates nothing until the first Carve. A
// header's share is the power of two at or above the shape's diameter: a
// message that has not strayed holds at most Distance(Src, Dst) hops, so
// its stack never outgrows the share, and a strayed one has the rounding
// to spare before it does.
func NewTables(shape *grid.Shape, n int) Tables {
	share := 1 << bits.Len(uint(shape.Diameter()-1))
	return Tables{share: share, dirs: chunk.New[grid.Dir](n * share), visits: chunk.New[visit](n * share / 4),
		lent: chunk.NewPool[[]visit](n/4, n/4)}
}

// Carve hands msg the next share of the current chunk as its empty path
// stack, and t as the storage its table and any larger stack come from. A
// share is capped at its end, so a header never grows into its neighbour's.
func (t *Tables) Carve(msg *Message) {
	msg.path, msg.tables = t.dirs.Make(t.share), t
}

// Restack puts the tables back in the order they were made once every one
// is on hand, so a rerun of one trial borrows, at every stray, the table it
// borrowed the first time and grows none.
func (t *Tables) Restack() { t.lent.Restack() }

// Stalled reports whether the message's most recent step was a contention
// stall (it lost link arbitration and waited in place).
func (msg *Message) Stalled() bool { return msg.stalled }

// Done reports whether the message reached a terminal state.
func (msg *Message) Done() bool {
	return msg.Arrived || msg.Unreachable || msg.Lost || msg.TimedOut
}

// find returns id's slot in the used-direction table, or -1.
//
//meshvet:noalloc TestRecycledMessageAllocFree
func (msg *Message) find(id grid.NodeID) int32 {
	table := *msg.table
	for i := range table {
		if table[i].node == id {
			return int32(i)
		}
	}
	return -1
}

// materialize builds the used-direction table of a message that has not
// strayed, as it strays: one entry per hop on the stack, for the node the
// hop left (walked from Src) and the one direction tried there, in path
// order — the order a table written hop by hop would hold them in, so every
// later lookup and decision is the same. Cur has been left by no hop and
// gets no entry. The table comes from the header's Tables, if it has one
// and holds no table of its own; a header with none makes its own once.
//
//meshvet:noalloc TestRecycledMessageAllocFree
func (msg *Message) materialize(m *mesh.Mesh) {
	if msg.strayed {
		return
	}
	msg.strayed = true
	if msg.table == nil {
		if msg.tables != nil {
			msg.table, _ = msg.tables.lent.Get()
		} else {
			//meshvet:allow a header with no Tables keeps the one table it makes
			msg.table = new([]visit)
		}
	}
	// A fresh table is sized once for the path and as much again.
	msg.growTable(2*len(msg.path) + 2)
	table, u := *msg.table, msg.Src
	for _, d := range msg.path {
		table = append(table, visit{node: u, used: grid.DirSet(0).Add(d)})
		u = m.Neighbor(u, d)
	}
	*msg.table = table
}

// growTable makes room for n more entries in the used-direction table: a
// full table moves to a block carved by the header's Tables (a header with
// none grows by append).
//
//meshvet:noalloc TestRecycledMessageAllocFree
func (msg *Message) growTable(n int) {
	if msg.tables != nil {
		*msg.table = msg.tables.visits.Grow(*msg.table, n)
	} else {
		*msg.table = slices.Grow(*msg.table, n)
	}
}

// enter makes id (at table slot slot, -1 if none) the current node.
//
//meshvet:noalloc TestRecycledMessageAllocFree
func (msg *Message) enter(id grid.NodeID, slot int32) {
	msg.Cur, msg.slot, msg.used = id, slot, 0
	if slot >= 0 {
		msg.used = (*msg.table)[slot].used
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

// StateKey sums the versions of the context's mesh and record store. Both
// only ever advance, so the sum is unchanged exactly when neither moved.
//
//meshvet:noalloc TestContentionStepAllocFree
func StateKey(ctx *Context) uint64 {
	k := ctx.M.Version()
	if ctx.Store != nil {
		k += ctx.Store.Version()
	}
	return k
}

// Plan opens one step of an in-flight message: it counts the step and
// returns the decision the step commits, or false when there is none (the
// message is terminal, or arrives now). key is StateKey of ctx and
// oblivious is LoadOblivious(r): a message whose last step was a gate
// denial, under a load-oblivious router and an unchanged key, takes the
// decision it kept without asking r — the header fields a decision reads
// are as they were, and so are the mesh and the store. The first step
// fills in the header's toward set.
//
//meshvet:noalloc TestContentionStepAllocFree
func Plan(ctx *Context, r Router, msg *Message, key uint64, oblivious bool) (Decision, bool) {
	if msg.Done() {
		return Decision{}, false
	}
	msg.Steps++
	// A stalled message is not at its destination: it would have arrived.
	if msg.stalled && oblivious && msg.key == key {
		return msg.kept, true
	}
	if msg.Cur == msg.Dst {
		msg.Arrived = true
		return Decision{}, false
	}
	if msg.toward == 0 {
		msg.toward = towardOf(ctx.M.Shape(), msg.Cur, msg.Dst)
	}
	// Limited, the router of every load workload, is called by its concrete
	// type: its Decide inlines, so Algorithm 3 is one call away.
	var d Decision
	if l, isLimited := r.(Limited); isLimited {
		d = l.Decide(ctx, msg)
	} else {
		d = r.Decide(ctx, msg)
	}
	msg.kept, msg.key = d, key
	return d, true
}

// Link returns the direction of the link d crosses from Cur, and false when
// it crosses none: a Fail, or the one Backtrack that crosses no link (an
// empty path stack, the terminal unreachable transition of applyBacktrack),
// which therefore has nothing to arbitrate and consults no gate —
// TestBacktrackEmptyPathConsultsNoGate pins it. Every other traversal,
// forward or backward, asks the gate for this link.
//
//meshvet:noalloc TestContentionStepAllocFree
func (msg *Message) Link(d Decision) (grid.Dir, bool) {
	switch {
	case d.Fail:
	case d.Backtrack:
		if n := len(msg.path); n > 0 {
			return msg.path[n-1].Opposite(), true
		}
	case d.Move:
		return d.Dir, true
	}
	return grid.InvalidDir, false
}

// Wait ends the step of a message whose link the gate denied: it stays
// where it is, stalled, with the decision Plan returned kept for the next
// step.
//
//meshvet:noalloc TestContentionStepAllocFree
func (msg *Message) Wait() {
	msg.Waits++
	msg.stalled = true
}

// Commit ends the step by executing d, whose link (if any) was granted. It
// returns true if the message is still in flight afterwards.
//
//meshvet:noalloc TestContentionStepAllocFree
func Commit(ctx *Context, msg *Message, d Decision) bool {
	switch {
	case d.Fail:
		msg.Unreachable = true
		return false
	case d.Backtrack:
		msg.applyBacktrack(ctx)
	case d.Move:
		msg.applyMove(ctx, d.Dir)
	}
	msg.stalled = false
	if msg.Cur == msg.Dst {
		msg.Arrived = true
		return false
	}
	return !msg.Done()
}

// applyMove makes the forward hop along dir. While the message has not
// strayed and the hop shrinks the distance, it pushes dir and nothing else;
// the first hop that does not materializes the table and records it there.
//
//meshvet:noalloc TestRecycledMessageAllocFree
func (msg *Message) applyMove(ctx *Context, dir grid.Dir) {
	next := ctx.M.Neighbor(msg.Cur, dir)
	if next == grid.InvalidNode {
		// A router must never pick an off-mesh direction; treat as lost to
		// surface the bug in tests rather than panic in experiments.
		msg.Lost = true
		return
	}
	slot := int32(-1)
	if msg.strayed || !msg.toward.Has(dir) {
		msg.materialize(ctx.M)
		if msg.slot < 0 {
			msg.slot = int32(len(*msg.table))
			msg.growTable(1)
			*msg.table = append(*msg.table, visit{node: msg.Cur})
		}
		(*msg.table)[msg.slot].used = msg.used.Add(dir)
		slot = msg.find(next)
	}
	if len(msg.path) == cap(msg.path) && msg.tables != nil {
		msg.path = msg.tables.dirs.Grow(msg.path, 1)
	}
	msg.path = append(msg.path, dir)
	msg.retoward(ctx.M.Shape(), dir)
	msg.enter(next, slot)
	msg.Incoming = dir
	msg.Hops++
}

// applyBacktrack pops the top hop and returns along it to the node it
// left, materializing the table first if this is the message's first
// stray.
//
//meshvet:noalloc TestRecycledMessageAllocFree
func (msg *Message) applyBacktrack(ctx *Context) {
	if len(msg.path) == 0 {
		msg.Unreachable = true
		return
	}
	msg.materialize(ctx.M)
	back := msg.path[len(msg.path)-1].Opposite()
	prev := ctx.M.Neighbor(msg.Cur, back)
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
	msg.Incoming = back
	msg.retoward(ctx.M.Shape(), back)
	msg.enter(prev, msg.find(prev))
	msg.Hops++
	msg.Backtracks++
}

// retoward updates the toward set for a hop from Cur along dir, which
// changes Cur's coordinate on dir's axis alone; it is called before the
// hop, so it reads the coordinates of nodes known before the neighbor
// lookup. A hop that shrinks the distance keeps dir unless it closes the
// axis (Cur is one hop short of Dst on it); any other hop opens the axis
// (or widens it) on dir's side, so the way back shrinks it.
//
//meshvet:noalloc TestRecycledMessageAllocFree
func (msg *Message) retoward(shape *grid.Shape, dir grid.Dir) {
	switch a := dir.Axis(); {
	case !msg.toward.Has(dir):
		msg.toward = msg.toward.Add(dir.Opposite())
	case shape.CoordView(msg.Cur)[a]+dir.Sign() == shape.CoordView(msg.Dst)[a]:
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
//meshvet:noalloc TestContentionStepAllocFree
func (Limited) Decide(ctx *Context, msg *Message) Decision {
	return algorithm3(ctx, msg, ctx.Store)
}

// algorithm3 is Algorithm 3 given the records the current node knows in
// store (nil: none, the blind router):
//  1. If the current node is disabled (or faulty under us), backtrack.
//  2. Pick the unused outgoing direction with the highest priority:
//     preferred, spare (along the block), preferred-but-detour, incoming.
//  3. With no unused outgoing direction, backtrack.
//  4. Backtracked to the source with nothing left: unreachable.
//
// Its first case is the common one, taken before any classification: at an
// enabled node that holds no record nothing is demoted, so an unused open
// direction toward the destination is the decision.
//
//meshvet:noalloc TestContentionStepAllocFree
func algorithm3(ctx *Context, msg *Message, store *info.Store) Decision {
	var recs []info.Record
	if store != nil {
		recs = store.At(msg.Cur)
	}
	if len(recs) == 0 {
		m := ctx.M
		if p := m.Open(msg.Cur) &^ msg.used & msg.toward; p != 0 && !m.Status(msg.Cur).Bad() {
			return Decision{Move: true, Dir: p.First()}
		}
	}
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
// the mesh's open set — so the partition is mask arithmetic. Only a preferred
// step in some record's shadow (info.Record.Shadow, fixed when the record
// was deposited) can be demoted, so only those steps look at a neighbor, and
// each is tested against only the records whose shadow holds it. A
// disabled/faulty current node has no candidates (the backtrack case).
//
//meshvet:noalloc TestContentionStepAllocFree
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
	var shadows grid.DirSet
	for _, r := range recs {
		shadows |= r.Shadow()
	}
	if at := preferred & shadows; at != 0 {
		dc := shape.CoordView(msg.Dst)
		for r := at; r != 0; r &= r - 1 {
			d := r.First()
			if demotedByRecords(ctx.Store, recs, d, shape.CoordView(m.Neighbor(u, d)), dc) {
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

// demotedByRecords applies the critical-routing rule: a preferred step d
// onto w is demoted to preferred-but-detour when, per some stored block
// record, w lies in the block's dangerous shadow while the destination is
// trapped beyond the opposite surface (Section 2.2). Only a record whose
// shadow has d can say so.
func demotedByRecords(store *info.Store, recs []info.Record, d grid.Dir, wc, dc grid.Coord) bool {
	for _, r := range recs {
		if r.Shadow().Has(d) && boundary.Demotes(store.Box(r.Block), wc, dc) {
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
//meshvet:noalloc TestContentionStepAllocFree
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
// it on the first ask since m last changed. The arena grows by doubling
// whole fields, from one up to the budget's, so an Oracle asked for a few
// fields pays for those; a full one is dropped. An Oracle that has grown
// for a mesh size allocates nothing more for it.
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
		if fields, most := cap(o.dist)/n, max(min(n, fieldBudget/n), 1); fields < most {
			o.dist = append(make([]int32, 0, min(max(2*fields, 1), most)*n), o.dist...)
		} else {
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
//meshvet:noalloc TestTimeoutStepAllocFree
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
	return Decision{Fail: true} // already at destination: Plan handles it
}

// LoadOblivious reports whether r decides from the mesh, the record store
// and the header fields a stall leaves alone, and from nothing else — so a
// decision it made before a stall is the one it would make after, while the
// mesh and store versions hold. That is every ByName router but congested,
// which reads Context.Load and Message.Stalled. Oracle's table is a pure
// function of the mesh.
//
//meshvet:noalloc TestContentionStepAllocFree
func LoadOblivious(r Router) bool {
	switch r.(type) {
	case Limited, Blind, DOR, *Oracle:
		return true
	}
	return false
}

// ByName returns a router by experiment name: a fresh Oracle, whose table
// is its own, or the stateless value of every other router. The
// simulation's cell runners route with the simulation's own Oracle instead,
// so a warm cell reuses its table's storage.
func ByName(name string) (Router, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	return builders[name](), nil
}

// builders holds, by experiment name, each router ByName builds.
var builders = map[string]func() Router{
	"limited":   func() Router { return Limited{} },
	"congested": func() Router { return Congested{} },
	"blind":     func() Router { return Blind{} },
	"oracle":    func() Router { return &Oracle{} },
	"dor":       func() Router { return DOR{} },
}

// CheckName returns the error ByName returns for a name it does not know,
// and nil for one it builds, building nothing.
func CheckName(name string) error {
	if _, ok := builders[name]; !ok {
		return fmt.Errorf("route: unknown router %q", name)
	}
	return nil
}
