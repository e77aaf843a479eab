// Package ident implements Algorithm 2's identification process: the
// distributed, hop-by-hop discovery of a faulty block's extent, started at
// a newly-formed n-level corner, organized in the paper's three phases:
//
//	Phase 1: k-1 identification messages travel from a k-level corner along
//	         k-1 of its surface directions, visiting every k-level edge node.
//	Phase 2: at each edge node, a (k-1)-level identification of the block's
//	         cross-section at that position is activated; the base case
//	         (2-level) is a pair of messages walking the adjacent ring of a
//	         2-D section in opposite orientations, meeting at the opposite
//	         2-level corner with the section extents.
//	Phase 3: a collection message walks the opposite edge, gathering each
//	         position's identified section, checking consistency ("if there
//	         is a different section, the block is not stable"), and delivers
//	         the assembled block information to the k-level corner opposite
//	         the initialization corner.
//
// Every message advances one hop per round and takes decisions from local
// information only: the status of the nodes adjacent to it and the frame
// announcements (internal/frame) of its one-hop neighborhood. A message
// that senses an inconsistency — a faulty or disabled node in the
// forwarding direction, a section that does not match — kills its run, and
// every run carries a TTL after which it is discarded, exactly as Section 3
// prescribes for unstable blocks. Initiating corners retry with a backoff
// until their block's record reaches them.
//
// When the opposite corner has assembled consistent information from all
// n-1 collectors, the protocol reports the identified block through the
// OnIdentified callback; the orchestrator (internal/core) then launches the
// combined phase-4/boundary flood (internal/boundary) that distributes the
// record over the block's frame and boundary walls.
//
// What a run remembers is kept one way each. A box has one owner that
// outlives its readers: a message carries one box; what must survive the
// message (the ring rendezvous, the collectors' hulls, a sub's result)
// belongs to the sub-identification, which lives until its run is recycled;
// run.results only views those boxes. A corner's retry state is one entry
// of a node-indexed array. Runs, subs and messages recycle through free
// lists, each rewound by one assignment that names the storage it keeps.
package ident

import (
	"ndmesh/internal/chunk"
	"ndmesh/internal/frame"
	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
)

// Protocol drives all in-flight identification runs.
type Protocol struct {
	m     *mesh.Mesh      //meshvet:keep dependency, not per-trial state
	det   *frame.Detector //meshvet:keep dependency, not per-trial state
	store *info.Store     //meshvet:keep dependency, not per-trial state

	// OnIdentified is invoked when a run completes with the identified
	// block box and the opposite corner at which the information formed.
	// The box is the run's storage: a callee that keeps it copies it.
	OnIdentified func(box grid.Box, oppositeCorner grid.NodeID) //meshvet:keep orchestrator wiring, not trial state

	// TTL is the round budget of a run before it is discarded; backoff is
	// the further delay before its corner may re-initiate; maxRetries bounds
	// initiations per corner between Notify events, guaranteeing quiescence
	// even around permanently unidentifiable configurations (e.g.
	// interfering blocks closer than two hops). NewProtocol derives all
	// three from the shape.
	TTL        int //meshvet:keep derived from the shape, survives trials
	backoff    int //meshvet:keep derived from the shape, survives trials
	maxRetries int //meshvet:keep constant, survives trials

	runs    []*run
	walkers []*walker
	// spareRuns/spareSubs/spareWalkers recycle retired protocol objects;
	// with them a fault process that cycles identifications through the
	// protocol allocates nothing once warm. A run goes back in the round it
	// ends, since that round's walker filter drops all its walkers.
	spareRuns    chunk.Pool[run]
	spareSubs    chunk.Pool[subRun]
	spareWalkers chunk.Pool[walker]
	// pending holds nodes to consider for initiation (fed by announcement
	// changes and by retry wakeups); initiate drains it every round. retry
	// is every node's retry state, indexed by node id; retryQueue lists the
	// corners waiting for retry[node].at, the one schedule of
	// re-initiations after a failed, discarded or backed-off attempt.
	pending    grid.NodeSet
	retry      []retryEntry
	retryQueue []grid.NodeID
	round      int

	// Every list that grows with the pooled objects is carved from chunks
	// (internal/chunk): a box's Lo and Hi and a sub's free axes (ints), a
	// sub's collected hulls (boxes), and a run's results and subs. A cold
	// fill costs an allocation per chunk; every carved block stays with its
	// owner across Reset.
	ints     chunk.Carver[int]      //meshvet:keep carves boxes and free axes their objects keep
	boxes    chunk.Carver[grid.Box] //meshvet:keep carves the collected hulls their subs keep
	sections chunk.Carver[section]  //meshvet:keep carves run results
	subList  chunk.Carver[*subRun]  //meshvet:keep carves run subs

	// Hops counts walker moves (identification message cost).
	Hops int
	// Started, Completed, Failed count runs for the harness.
	Started, Completed, Failed int
}

// retryEntry is one node's retry state as an initiating corner.
type retryEntry struct {
	attempts int // runs started since the node's last Notify
	at       int // earliest round the node may start another
}

// NewProtocol builds an identification protocol over the mesh, frame
// detector and info store.
func NewProtocol(m *mesh.Mesh, det *frame.Detector, store *info.Store) *Protocol {
	diam, dims := m.Shape().Diameter(), m.Shape().Dims()
	return &Protocol{
		m:            m,
		det:          det,
		store:        store,
		TTL:          6*diam + 24,
		backoff:      2*diam + 8,
		maxRetries:   4,
		pending:      grid.NewNodeSet(m.NumNodes()),
		retry:        make([]retryEntry, m.NumNodes()),
		spareRuns:    chunk.NewPool[run](objsPerChunk, objsPerChunk),
		spareSubs:    chunk.NewPool[subRun](objsPerChunk, objsPerChunk),
		spareWalkers: chunk.NewPool[walker](objsPerChunk, objsPerChunk),
		ints:         chunk.New[int](4 * dims * objsPerChunk),
		boxes:        chunk.New[grid.Box](dims * objsPerChunk),
		sections:     chunk.New[section](objsPerChunk),
		subList:      chunk.New[*subRun](4 * objsPerChunk),
	}
}

// objsPerChunk is how many runs, subs or walkers the first chunk of each
// kind is sized for; NewProtocol sizes the chunks of their lists from it.
const objsPerChunk = 16

// Reset abandons every in-flight run and all retry state so the protocol
// can be reused for a new trial; every buffer keeps its capacity, and the
// free lists go back in the order their objects were made.
func (p *Protocol) Reset() {
	p.spareWalkers.Put(p.walkers...)
	p.walkers = p.walkers[:0]
	for _, r := range p.runs {
		p.recycle(r)
	}
	p.runs = p.runs[:0]
	p.spareRuns.Restack()
	p.spareSubs.Restack()
	p.spareWalkers.Restack()
	p.pending.Clear()
	clear(p.retry)
	p.retryQueue = p.retryQueue[:0]
	p.round = 0
	p.Hops, p.Started, p.Completed, p.Failed = 0, 0, 0, 0
}

// recycle parks a retired run and its subRuns on the free lists. Callers
// guarantee no live walker still references them.
func (p *Protocol) recycle(r *run) {
	p.spareSubs.Put(r.subs...)
	p.spareRuns.Put(r)
}

// getRun, getSub and getWalker take an object off its free list (or carve
// one) and rewind it by one assignment that names only the storage it
// keeps; the caller sets every field it needs. A carved sub or walker gets
// its box's storage, and a sub its free axes', for good.
//
//meshvet:noalloc TestFaultProcessStepAllocFree
func (p *Protocol) getRun() *run {
	r, _ := p.spareRuns.Get()
	*r = run{results: r.results[:0], subs: r.subs[:0]}
	return r
}

//meshvet:noalloc TestFaultProcessStepAllocFree
func (p *Protocol) getSub() *subRun {
	s, fresh := p.spareSubs.Get()
	if fresh {
		p.carveBox(&s.box)
		s.freeAxes = p.ints.Make(p.m.Shape().Dims())
	}
	*s = subRun{freeAxes: s.freeAxes[:0], box: s.box, collected: s.collected}
	return s
}

//meshvet:noalloc TestFaultProcessStepAllocFree
func (p *Protocol) getWalker() *walker {
	w, fresh := p.spareWalkers.Get()
	if fresh {
		p.carveBox(&w.box)
	}
	*w = walker{box: w.box}
	return w
}

// carveBox gives b room for a box of the mesh's dimension, Lo and Hi in one
// carved block, so setting it never allocates.
//
//meshvet:noalloc TestFaultProcessStepAllocFree
func (p *Protocol) carveBox(b *grid.Box) {
	n := p.m.Shape().Dims()
	c := p.ints.Make(2 * n)
	b.Lo, b.Hi = c[:0:n], c[n:n:2*n]
}

// Notify feeds nodes whose frame announcement changed (or that otherwise
// deserve a look) into the initiation queue, resetting their retry budget:
// fresh local conditions deserve fresh attempts. The orchestrator calls it
// with the frame detector's per-round change list.
func (p *Protocol) Notify(ids ...grid.NodeID) {
	for _, id := range ids {
		p.retry[id].attempts = 0
		p.pending.Add(id)
	}
}

// run is one identification process, initiated at one n-level corner.
type run struct {
	initiator grid.NodeID
	deadline  int
	failed    bool
	done      bool
	// results holds completed sub-identifications, one per node where
	// the identified section information rests (the sub's opposite corner)
	// and not per sub: from 4-D up, subs of different parents complete at
	// the same node and a collector reads whichever section rests there.
	// The boxes alias the completing sub's. A few entries, searched in
	// order: a cleared map would draw a new hash seed and could grow at a
	// different insert, so a rerun would not allocate as its first run did.
	results []section
	// subs is every subRun of the run. They are recycled with the run and
	// not before, so a box a sub owns outlives every walker of the run.
	subs []*subRun
}

// section is one completed sub-identification: the box whose information
// rests at node.
type section struct {
	node grid.NodeID
	box  grid.Box
}

// result returns the box of the section resting at node.
//
//meshvet:noalloc TestFaultProcessStepAllocFree
func (r *run) result(node grid.NodeID) (grid.Box, bool) {
	for _, s := range r.results {
		if s.node == node {
			return s.box, true
		}
	}
	return grid.Box{}, false
}

// rest records box as the section resting at node, replacing an earlier one.
func (p *Protocol) rest(r *run, node grid.NodeID, box grid.Box) {
	for i := range r.results {
		if r.results[i].node == node {
			r.results[i].box = box
			return
		}
	}
	r.results = p.sections.Grow(r.results, 1)
	r.results = append(r.results, section{node, box})
}

// subRun is one (possibly nested) k-level identification: the top-level one
// plus one per edge position per level above 2.
type subRun struct {
	r          *run
	parent     *subRun
	parentAxis int  // travel axis of the parent edge this sub hangs off
	isFirst    bool // first position on the parent's edge (collector trigger)
	level      int
	freeAxes   []int
	start      grid.NodeID
	// dirs is the start corner's surface-direction role for this sub; the
	// expected frame roles of every node the walkers touch derive from it,
	// which keeps the walk unambiguous even when other blocks' frames are
	// nearby.
	dirs grid.DirSet

	// travelAxes are the phase-1 axes; the direction travelled along axis a
	// is axisDir(dirs, a), for the edge walker and its collector alike.
	travelAxes []int

	// ring rendezvous (level 2 only): the first walker to reach the
	// opposite corner leaves its section in box, at ringNode.
	ringMet  bool
	ringNode grid.NodeID
	box      grid.Box

	// phase 3 (level >= 3 only): one collector per travel axis, launched
	// when the first position of that edge completes. delivered counts the
	// arrived ones, collected[axis] is an arrived collector's hull (sized
	// to the mesh dimension at first launch, reused afterwards),
	// deliverNode is where they arrived.
	delivered   int
	collected   []grid.Box
	deliverNode grid.NodeID
}

type walkerKind uint8

const (
	edgeWalker walkerKind = iota
	ringWalker
	collectWalker
)

// walker is one identification message.
type walker struct {
	s    *subRun
	kind walkerKind
	pos  grid.NodeID
	dir  grid.Dir // edge/collect: travel direction; ring: current move dir
	axis int      // edge/collect: travel axis

	inward grid.Dir // ring: direction toward the block section
	legs   int      // ring: corners passed
	// box is the information the message carries. ring: the extremes of
	// the corner coordinates visited, shrunk to the section on arrival;
	// collect: the hull of the sections gathered, once hasBox.
	box     grid.Box
	hasBox  bool
	folded  bool // collect: current node's section already folded
	done    bool
	spawned bool // edge: whether this position's sub was spawned
}

// Round advances the protocol one round: initiates runs at eligible
// corners, moves every walker one hop, and retires finished or failed runs.
// It returns the number of elementary actions (moves + initiations), which
// is zero at quiescence.
//
//meshvet:noalloc TestFaultProcessStepAllocFree
func (p *Protocol) Round() int {
	p.round++
	actions := p.initiate()

	// Advance walkers in creation order for determinism.
	for _, w := range p.walkers {
		if w.done || w.s.r.failed || w.s.r.done {
			continue
		}
		switch w.kind {
		case edgeWalker:
			actions += p.advanceEdge(w)
		case ringWalker:
			actions += p.advanceRing(w)
		case collectWalker:
			actions += p.advanceCollect(w)
		}
	}

	// Retire walkers and runs. Dropped walkers go straight to the free
	// list (nothing references a walker but this slice). The filter drops
	// every walker of a run the loop below retires — done, failed or past
	// its deadline — so each retired run goes straight back too.
	liveW := p.walkers[:0]
	for _, w := range p.walkers {
		if r := w.s.r; !w.done && !r.failed && !r.done && p.round <= r.deadline {
			liveW = append(liveW, w)
		} else {
			p.spareWalkers.Put(w)
		}
	}
	p.walkers = liveW
	liveR := p.runs[:0]
	for _, r := range p.runs {
		switch {
		case r.done:
			p.Completed++
		case r.failed || p.round > r.deadline:
			p.Failed++
			r.failed = true
			// Schedule a retry from the initiator if budget remains.
			if p.retry[r.initiator].attempts < p.maxRetries {
				p.retryQueue = chunk.Reserve(p.retryQueue, objsPerChunk)
				p.retryQueue = append(p.retryQueue, r.initiator)
			}
		default:
			liveR = append(liveR, r)
			continue
		}
		p.recycle(r)
	}
	p.runs = liveR
	return actions
}

// Quiescent reports whether nothing is in flight or scheduled.
func (p *Protocol) Quiescent() bool {
	return len(p.runs) == 0 && len(p.walkers) == 0 &&
		p.pending.Len() == 0 && len(p.retryQueue) == 0
}

// initiate starts a run at every pending enabled n-level corner that lacks
// a record of the block it is a corner of and whose backoff has expired.
//
//meshvet:noalloc TestFaultProcessStepAllocFree
func (p *Protocol) initiate() int {
	// Wake scheduled retries that are due (without resetting retry
	// budgets).
	n := p.m.Shape().Dims()
	waiting := p.retryQueue[:0]
	for _, id := range p.retryQueue {
		// Drop retries that became moot: the node stopped being an
		// n-level corner (its announcement was transient), or it received
		// its block record from another initiator's construction.
		if int(p.det.Announcement(id).Level) != n || p.hasCornerRecord(id, 0) {
			continue
		}
		if p.retry[id].at <= p.round {
			p.pending.Add(id)
		} else {
			waiting = append(waiting, id)
		}
	}
	p.retryQueue = waiting

	// Nothing below pends a node (a backed-off corner goes to retryQueue),
	// so the queue is drained by one walk and one Clear.
	started := 0
	for _, id := range p.pending.IDs() {
		if p.m.Status(id) != mesh.Enabled {
			continue
		}
		for _, ann := range p.det.Records(id) {
			// The retry budget bounds total initiations from this corner
			// between Notify events, whatever the outcome of earlier runs;
			// without it, a corner serving two blocks would re-identify
			// forever when one block's record cannot reach it.
			if int(ann.Level) != n || p.hasCornerRecord(id, ann.Dirs) ||
				p.retry[id].attempts >= p.maxRetries {
				continue
			}
			if p.round < p.retry[id].at {
				// Back off: re-examine when the backoff expires.
				p.retryQueue = chunk.Reserve(p.retryQueue, objsPerChunk)
				p.retryQueue = append(p.retryQueue, id)
				continue
			}
			p.startRun(id, ann)
			started++
		}
	}
	p.pending.Clear()
	return started
}

// hasCornerRecord reports whether node id already holds a record of a block
// it is an n-level corner of, in the corner role (surface directions) dirs —
// in any role when dirs is 0.
func (p *Protocol) hasCornerRecord(id grid.NodeID, dirs grid.DirSet) bool {
	n := p.m.Shape().Dims()
	for _, r := range p.store.At(id) {
		if role := r.Role(); role.Count() == n && (dirs == 0 || role == dirs) {
			return true
		}
	}
	return false
}

func (p *Protocol) startRun(corner grid.NodeID, ann frame.Announcement) {
	p.Started++
	p.retry[corner].attempts++
	p.retry[corner].at = p.round + p.TTL + p.backoff
	r, top := p.getRun(), p.getSub()
	r.initiator, r.deadline = corner, p.round+p.TTL
	top.r, top.level, top.start, top.dirs = r, p.m.Shape().Dims(), corner, ann.Dirs
	for i := 0; i < top.level; i++ {
		top.freeAxes = append(top.freeAxes, i)
	}
	r.subs = p.subList.Grow(r.subs, 1)
	r.subs = append(r.subs, top)
	p.runs = chunk.Reserve(p.runs, 4*objsPerChunk)
	p.runs = append(p.runs, r)
	p.launch(top)
}

// launch starts the walkers of a sub-identification from its start corner,
// whose surface-direction role is s.dirs.
func (p *Protocol) launch(s *subRun) {
	if s.level == 2 {
		// Base case: ring pair around the 2-D section.
		i, j := s.freeAxes[0], s.freeAxes[1]
		di, okI := axisDir(s.dirs, i)
		dj, okJ := axisDir(s.dirs, j)
		if !okI || !okJ {
			s.r.failed = true
			return
		}
		for _, pair := range [2][2]grid.Dir{{di, dj}, {dj, di}} {
			w := p.addWalker(s, ringWalker, s.start, pair[0])
			w.inward = pair[1]
			w.box.SetAt(p.m.Shape().CoordView(s.start))
		}
		return
	}
	// Phase 1: k-1 edge walkers; the excluded free axis is the highest.
	s.travelAxes = s.freeAxes[:len(s.freeAxes)-1]
	if s.collected == nil {
		n := p.m.Shape().Dims()
		s.collected = p.boxes.Make(n)[:n]
		for i := range s.collected {
			p.carveBox(&s.collected[i])
		}
	}
	for _, a := range s.travelAxes {
		d, ok := axisDir(s.dirs, a)
		if !ok {
			s.r.failed = true
			return
		}
		p.addWalker(s, edgeWalker, s.start, d).axis = a
	}
}

// addWalker puts a new message of sub s at pos, heading in direction dir.
func (p *Protocol) addWalker(s *subRun, kind walkerKind, pos grid.NodeID, dir grid.Dir) *walker {
	w := p.getWalker()
	w.s, w.kind, w.pos, w.dir = s, kind, pos, dir
	p.walkers = chunk.Reserve(p.walkers, 4*objsPerChunk)
	p.walkers = append(p.walkers, w)
	return w
}

// flipAll reverses every direction in a set — the role of the node opposite
// along every announced axis — by swapping each axis's bit pair
// (grid.DirPlus(a) is bit 2a, grid.DirMinus(a) bit 2a+1).
func flipAll(dirs grid.DirSet) grid.DirSet {
	const plus = 0x55555555
	return (dirs&plus)<<1 | (dirs>>1)&plus
}

// axisDir extracts the direction along the given axis from a direction set.
func axisDir(dirs grid.DirSet, axis int) (grid.Dir, bool) {
	if dirs.Has(grid.DirPlus(axis)) {
		return grid.DirPlus(axis), true
	}
	if dirs.Has(grid.DirMinus(axis)) {
		return grid.DirMinus(axis), true
	}
	return grid.InvalidDir, false
}

// advanceEdge, advanceRing and advanceCollect move one walker one hop (or
// let it wait) and return the number of moves performed (0 or 1).
//
//meshvet:noalloc TestFaultProcessStepAllocFree
func (p *Protocol) advanceEdge(w *walker) int {
	next := p.m.Neighbor(w.pos, w.dir)
	if next == grid.InvalidNode || p.m.Status(next) != mesh.Enabled {
		w.s.r.failed = true // faulty/disabled/missing node in the forwarding direction
		return 0
	}
	// The roles the walk expects, derived from the initiating corner's
	// role: edge nodes along travel direction d announce the corner's set
	// minus d; the far corner announces the set with d reversed.
	expectEdge := w.s.dirs.Remove(w.dir)
	expectFar := expectEdge.Add(w.dir.Opposite())
	switch {
	case p.det.HasRecord(next, w.s.level-1, expectEdge):
		// Next edge node: move and activate the down-level identification.
		w.pos = next
		p.Hops++
		p.spawnSub(w, next, expectEdge)
		return 1
	case p.det.HasRecord(next, w.s.level, expectFar):
		// The far corner: phase 1 along this edge is complete.
		w.pos = next
		w.done = true
		p.Hops++
		return 1
	default:
		// Frame announcements may still be stabilizing: wait one round
		// rather than failing outright; the TTL bounds total waiting.
		return 0
	}
}

// spawnSub activates the (k-1)-level identification at edge position node,
// whose corner role within the cross-section is dirs.
func (p *Protocol) spawnSub(w *walker, node grid.NodeID, dirs grid.DirSet) {
	parent := w.s
	sub := p.getSub()
	sub.r, sub.parent, sub.parentAxis, sub.isFirst = parent.r, parent, w.axis, !w.spawned
	sub.level, sub.start, sub.dirs = parent.level-1, node, dirs
	for _, a := range parent.freeAxes {
		if a != w.axis {
			sub.freeAxes = append(sub.freeAxes, a)
		}
	}
	parent.r.subs = p.subList.Grow(parent.r.subs, 1)
	parent.r.subs = append(parent.r.subs, sub)
	w.spawned = true
	p.launch(sub)
}

//meshvet:noalloc TestFaultProcessStepAllocFree
func (p *Protocol) advanceRing(w *walker) int {
	s := w.s
	next := p.m.Neighbor(w.pos, w.dir)
	if next == grid.InvalidNode || p.m.Status(next) != mesh.Enabled {
		s.r.failed = true
		return 0
	}
	w.pos = next
	p.Hops++
	// Corner test: a ring node that is no longer alongside the section (no
	// bad neighbor toward the block) is a ring corner.
	inwardNb := p.m.Neighbor(next, w.inward)
	if inwardNb != grid.InvalidNode && p.m.Status(inwardNb).Bad() {
		return 1
	}
	w.box.Include(p.m.Shape().CoordView(next))
	w.legs++
	if w.legs < 2 {
		// Turn: the new move direction is the old inward direction; the
		// block is now behind the old travel direction.
		w.dir, w.inward = w.inward, w.dir.Opposite()
		return 1
	}
	// Second corner: the opposite 2-level corner. The extremes seen become
	// the identified section: the ring axes shrink by one on each side
	// (from the shell to the interior), all other axes stay pinned at the
	// walker's fixed coordinates.
	w.done = true
	for _, a := range s.freeAxes {
		w.box.Lo[a]++
		w.box.Hi[a]--
		if w.box.Lo[a] > w.box.Hi[a] {
			s.r.failed = true
			return 1
		}
	}
	switch {
	case !s.ringMet:
		s.ringMet, s.ringNode = true, next
		s.box.Set(w.box)
	case s.ringNode != next || !s.box.Equal(w.box):
		s.r.failed = true // the two orientations disagree: unstable
	default:
		p.completeSub(s, next, s.box)
	}
	return 1
}

//meshvet:noalloc TestFaultProcessStepAllocFree
func (p *Protocol) advanceCollect(w *walker) int {
	s := w.s
	if !w.folded {
		box, ok := s.r.result(w.pos)
		if !ok {
			return 0 // the section here has not been identified yet: wait
		}
		if !w.hasBox {
			w.box.Set(box)
			w.hasBox = true
		} else {
			// Consistency check of phase 3: every section must have the
			// same extents on all axes other than the travel axis — the
			// hull's, which on those axes are still the first section's.
			for l := range box.Lo {
				if l != w.axis && (box.Lo[l] != w.box.Lo[l] || box.Hi[l] != w.box.Hi[l]) {
					s.r.failed = true
					return 0
				}
			}
			w.box.Extend(box)
		}
		w.folded = true
	}
	next := p.m.Neighbor(w.pos, w.dir)
	if next == grid.InvalidNode || p.m.Status(next) != mesh.Enabled {
		s.r.failed = true
		return 0
	}
	// The opposite edge's roles are the initiator-side roles with every
	// direction reversed.
	switch {
	case p.det.HasRecord(next, s.level-1, flipAll(s.dirs.Remove(w.dir))):
		w.pos = next
		w.folded = false
		p.Hops++
		return 1
	case p.det.HasRecord(next, s.level, flipAll(s.dirs)):
		// The opposite corner: deliver the assembled information.
		w.pos = next
		w.done = true
		p.Hops++
		p.deliver(w, next)
		return 1
	default:
		return 0
	}
}

// deliver records collector w's hull at the opposite corner and completes
// the sub when every travel axis has delivered consistently.
func (p *Protocol) deliver(w *walker, corner grid.NodeID) {
	s := w.s
	if s.delivered == 0 {
		s.deliverNode = corner
	} else if s.deliverNode != corner {
		s.r.failed = true
		return
	}
	s.collected[w.axis].Set(w.box)
	s.delivered++
	if s.delivered < len(s.travelAxes) {
		return
	}
	final := s.collected[s.travelAxes[0]]
	for _, a := range s.travelAxes[1:] {
		if !final.Equal(s.collected[a]) {
			s.r.failed = true
			return
		}
	}
	p.completeSub(s, corner, final)
}

// completeSub finishes a sub-identification: the identified box, which the
// sub owns, is now available at the opposite corner node. A top-level
// completion finishes the run; a nested completion publishes the result for
// the parent's collector and, for the first position of an edge, triggers
// that collector.
func (p *Protocol) completeSub(s *subRun, node grid.NodeID, box grid.Box) {
	parent := s.parent
	if parent == nil {
		s.r.done = true
		if p.OnIdentified != nil {
			p.OnIdentified(box, node)
		}
		return
	}
	p.rest(s.r, node, box)
	if s.isFirst {
		dir, _ := axisDir(parent.dirs, s.parentAxis) // launch(parent) checked it
		p.addWalker(parent, collectWalker, node, dir).axis = s.parentAxis
	}
}
