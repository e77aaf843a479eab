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
package ident

import (
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
	OnIdentified func(box grid.Box, oppositeCorner grid.NodeID) //meshvet:keep orchestrator wiring, not trial state

	// TTL is the round budget of a run before it is discarded.
	TTL int //meshvet:keep tuning knob, survives trials
	// Backoff is the delay before a corner may re-initiate.
	Backoff int //meshvet:keep tuning knob, survives trials
	// MaxRetries bounds re-initiations per corner between Notify events,
	// guaranteeing quiescence even around permanently unidentifiable
	// configurations (e.g. interfering blocks closer than two hops).
	MaxRetries int //meshvet:keep tuning knob, survives trials

	retryCount map[grid.NodeID]int

	runs    []*run
	walkers []*walker
	// spareRuns/spareSubs/spareWalkers are free lists of retired protocol
	// objects; with them (plus the per-run box arena) a fault process that
	// cycles identifications through the protocol allocates nothing once
	// warm. deadFresh/deadReady stage retired runs for recycling: a
	// deadline-expired run's walkers are only dropped by the NEXT round's
	// walker filter, so its subRuns must survive one more round.
	spareRuns    []*run
	spareSubs    []*subRun
	spareWalkers []*walker
	deadFresh    []*run
	deadReady    []*run
	retryAt      map[grid.NodeID]int
	// pending holds nodes to consider for initiation (fed by announcement
	// changes and by retry wakeups); initiate drains it every round.
	pending grid.NodeSet
	// retryQueue holds scheduled re-initiations of corners whose runs
	// failed or were discarded.
	retryQueue []retryEntry
	round      int
	seq        int
	wseq       int

	// Hops counts walker moves (identification message cost).
	Hops int
	// Started, Completed, Failed count runs for the harness.
	Started, Completed, Failed int
}

// NewProtocol builds an identification protocol over the mesh, frame
// detector and info store.
func NewProtocol(m *mesh.Mesh, det *frame.Detector, store *info.Store) *Protocol {
	diam := m.Shape().Diameter()
	return &Protocol{
		m:          m,
		det:        det,
		store:      store,
		TTL:        6*diam + 24,
		Backoff:    2*diam + 8,
		MaxRetries: 4,
		retryAt:    make(map[grid.NodeID]int),
		retryCount: make(map[grid.NodeID]int),
		pending:    grid.NewNodeSet(m.NumNodes()),
	}
}

// Reset abandons every in-flight run and all retry state so the protocol
// can be reused for a new trial; tuning knobs (TTL, Backoff, MaxRetries)
// and map buckets are retained.
func (p *Protocol) Reset() {
	clear(p.retryCount)
	clear(p.retryAt)
	p.spareWalkers = append(p.spareWalkers, p.walkers...)
	for _, r := range p.runs {
		p.recycleRun(r)
	}
	for _, r := range p.deadFresh {
		p.recycleRun(r)
	}
	for _, r := range p.deadReady {
		p.recycleRun(r)
	}
	p.deadFresh = p.deadFresh[:0]
	p.deadReady = p.deadReady[:0]
	p.runs = p.runs[:0]
	p.walkers = p.walkers[:0]
	p.pending.Clear()
	p.retryQueue = p.retryQueue[:0]
	p.round, p.seq, p.wseq = 0, 0, 0
	p.Hops, p.Started, p.Completed, p.Failed = 0, 0, 0, 0
}

// recycleRun parks a retired run and its subRuns on the free lists. Callers
// must guarantee no live walker still references the run.
func (p *Protocol) recycleRun(r *run) {
	p.spareSubs = append(p.spareSubs, r.subs...)
	p.spareRuns = append(p.spareRuns, r)
}

// getRun acquires a run from the free list (or allocates one) with all
// per-run state cleared; map buckets and the box arena keep their storage.
func (p *Protocol) getRun() *run {
	if n := len(p.spareRuns); n > 0 {
		r := p.spareRuns[n-1]
		p.spareRuns = p.spareRuns[:n-1]
		clear(r.results)
		r.failed, r.done = false, false
		r.top = nil
		r.subs = r.subs[:0]
		r.arenaUsed = 0
		return r
	}
	return &run{results: make(map[grid.NodeID]grid.Box)}
}

// getSub acquires a subRun with containers emptied (capacity retained);
// the caller sets every scalar field it needs.
func (p *Protocol) getSub() *subRun {
	if n := len(p.spareSubs); n > 0 {
		s := p.spareSubs[n-1]
		p.spareSubs = p.spareSubs[:n-1]
		s.r, s.parent = nil, nil
		s.parentAxis, s.level = 0, 0
		s.isFirst = false
		s.freeAxes = s.freeAxes[:0]
		s.travelAxes = nil
		s.collectorUp, s.delivered = 0, 0
		s.start, s.dirs = grid.InvalidNode, 0
		s.ringNode, s.ringBox = grid.InvalidNode, nil
		s.deliverNode = grid.InvalidNode
		return s
	}
	return &subRun{}
}

// getWalker acquires a walker with every scalar field zeroed; the seen/res
// and collect hull boxes keep their backing arrays for reuse.
func (p *Protocol) getWalker() *walker {
	var w *walker
	if n := len(p.spareWalkers); n > 0 {
		w = p.spareWalkers[n-1]
		p.spareWalkers = p.spareWalkers[:n-1]
	} else {
		w = &walker{}
	}
	w.s = nil
	w.kind = edgeWalker
	w.pos, w.dir, w.axis = grid.InvalidNode, 0, 0
	w.inward, w.legs = 0, 0
	w.hasFirst, w.folded, w.done, w.spawned = false, false, false, false
	return w
}

// retryEntry schedules a node for re-consideration at a future round.
type retryEntry struct {
	at   int
	node grid.NodeID
}

// Notify feeds nodes whose frame announcement changed (or that otherwise
// deserve a look) into the initiation queue, resetting their retry budget:
// fresh local conditions deserve fresh attempts. The orchestrator calls it
// with the frame detector's per-round change list.
func (p *Protocol) Notify(ids ...grid.NodeID) {
	for _, id := range ids {
		delete(p.retryCount, id)
		p.pending.Add(id)
	}
}

// run is one identification process, initiated at one n-level corner.
type run struct {
	id        int
	initiator grid.NodeID
	deadline  int
	failed    bool
	done      bool
	// results holds completed sub-identifications, keyed by the node where
	// the identified section information rests (the sub's opposite corner).
	// Every stored box is stashed in the arena first, so map values stay
	// valid however the walkers that produced them are recycled.
	results map[grid.NodeID]grid.Box
	top     *subRun
	// subs tracks every subRun of the run for free-list recycling.
	subs []*subRun
	// arena is the run-owned box storage behind results/collected values;
	// arenaUsed is the bump cursor, rewound when the run is reused.
	arena     []grid.Box
	arenaUsed int
}

// stash copies b into the run's arena and returns the arena-owned copy,
// reusing storage left by earlier trials.
func (r *run) stash(b grid.Box) grid.Box {
	if r.arenaUsed < len(r.arena) {
		s := &r.arena[r.arenaUsed]
		s.Set(b)
		r.arenaUsed++
		return *s
	}
	r.arena = append(r.arena, b.Clone())
	r.arenaUsed++
	return r.arena[len(r.arena)-1]
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

	// ring rendezvous (level 2 only). ringVal is the sub-owned storage
	// behind ringBox so the first walker's result survives its recycling.
	ringNode grid.NodeID
	ringBox  *grid.Box
	ringVal  grid.Box

	// phase 3 (level >= 3 only): collectorUp and delivered hold the travel
	// directions of the collectors spawned and arrived; collected[axis] is
	// an arrived collector's hull (sized to the mesh dimension at first
	// launch, reused afterwards).
	collectorUp grid.DirSet
	delivered   grid.DirSet
	collected   []grid.Box
	deliverNode grid.NodeID // where collectors delivered (must agree)
}

type walkerKind uint8

const (
	edgeWalker walkerKind = iota
	ringWalker
	collectWalker
)

// walker is one identification message.
type walker struct {
	id   int
	s    *subRun
	kind walkerKind
	pos  grid.NodeID
	dir  grid.Dir // edge/collect: travel direction; ring: current move dir
	axis int      // edge/collect: travel axis

	inward grid.Dir // ring: direction toward the block section
	legs   int      // ring: corners passed
	seen   grid.Box // ring: extremes of visited corner coordinates
	res    grid.Box // ring: reusable storage for ringResult

	hullVal  grid.Box // collect: accumulated block information
	firstVal grid.Box // collect: first section, for the consistency check
	hasFirst bool     // collect: firstVal/hullVal hold a section
	folded   bool     // collect: current node's section already folded
	done     bool
	spawned  bool // edge: whether this position's sub was spawned
}

// Round advances the protocol one round: initiates runs at eligible
// corners, moves every walker one hop, and retires finished or failed runs.
// It returns the number of elementary actions (moves + initiations), which
// is zero at quiescence.
func (p *Protocol) Round() int {
	p.round++
	actions := p.initiate()

	// Advance walkers in id order for determinism.
	for _, w := range p.walkers {
		if w.done || w.s.r.failed || w.s.r.done {
			continue
		}
		actions += p.advance(w)
	}

	// Retire walkers and runs. Dropped walkers go straight to the free
	// list (nothing references a walker but this slice); retired runs are
	// staged through deadFresh/deadReady because a deadline-expired run's
	// walkers are only dropped by the NEXT round's walker filter.
	liveW := p.walkers[:0]
	for _, w := range p.walkers {
		if !w.done && !w.s.r.failed && !w.s.r.done {
			liveW = append(liveW, w)
		} else {
			p.spareWalkers = append(p.spareWalkers, w)
		}
	}
	p.walkers = liveW
	liveR := p.runs[:0]
	for _, r := range p.runs {
		if r.done {
			p.Completed++
			p.deadFresh = append(p.deadFresh, r)
			continue
		}
		if r.failed || p.round > r.deadline {
			p.Failed++
			r.failed = true
			// Schedule a retry from the initiator if budget remains.
			if p.retryCount[r.initiator] < p.MaxRetries {
				p.retryQueue = append(p.retryQueue, retryEntry{at: p.retryAt[r.initiator], node: r.initiator})
			}
			p.deadFresh = append(p.deadFresh, r)
			continue
		}
		liveR = append(liveR, r)
	}
	p.runs = liveR
	for _, r := range p.deadReady {
		p.recycleRun(r)
	}
	p.deadReady, p.deadFresh = p.deadFresh, p.deadReady[:0]
	return actions
}

// Quiescent reports whether nothing is in flight or scheduled.
func (p *Protocol) Quiescent() bool {
	return len(p.runs) == 0 && len(p.walkers) == 0 &&
		p.pending.Len() == 0 && len(p.retryQueue) == 0
}

// Active returns the number of in-flight runs.
func (p *Protocol) Active() int { return len(p.runs) }

// initiate starts a run at every pending enabled n-level corner that lacks
// a record of the block it is a corner of and whose backoff has expired.
func (p *Protocol) initiate() int {
	// Wake scheduled retries that are due (without resetting retry
	// budgets) and drop retries whose corner has meanwhile received its
	// block record from another initiator's construction.
	shape := p.m.Shape()
	n := shape.Dims()
	due := p.retryQueue[:0]
	for _, e := range p.retryQueue {
		// Drop retries that became moot: the node stopped being an
		// n-level corner (its announcement was transient), or it received
		// its block record from another initiator's construction.
		if int(p.det.Announcement(e.node).Level) != n ||
			p.hasCornerRecord(e.node, shape.CoordView(e.node)) {
			continue
		}
		if e.at <= p.round {
			p.pending.Add(e.node)
		} else {
			due = append(due, e)
		}
	}
	p.retryQueue = due

	// Nothing below pends a node (a backed-off corner goes to retryQueue),
	// so the queue is drained by one walk and one Clear.
	started := 0
	for _, id := range p.pending.IDs() {
		if p.m.Status(id) != mesh.Enabled {
			continue
		}
		for _, ann := range p.det.Records(id) {
			if int(ann.Level) != n {
				continue
			}
			if p.hasCornerRecordFor(id, shape.CoordView(id), ann.Dirs) {
				continue
			}
			// The retry budget bounds total initiations from this corner
			// between Notify events, whatever the outcome of earlier runs;
			// without it, a corner serving two blocks would re-identify
			// forever when one block's record cannot reach it.
			if p.retryCount[id] >= p.MaxRetries {
				continue
			}
			if at, ok := p.retryAt[id]; ok && p.round < at {
				// Back off: re-examine when the backoff expires.
				p.retryQueue = append(p.retryQueue, retryEntry{at: at, node: id})
				continue
			}
			p.startRun(id, ann)
			started++
		}
	}
	p.pending.Clear()
	return started
}

// hasCornerRecord reports whether node id already holds a block record it
// is an n-level corner of (any role).
func (p *Protocol) hasCornerRecord(id grid.NodeID, c grid.Coord) bool {
	for _, r := range p.store.At(id) {
		if frame.IsCorner(p.store.Box(r.Block), c) {
			return true
		}
	}
	return false
}

// hasCornerRecordFor reports whether node id holds a block record matching
// the specific corner role (surface directions).
func (p *Protocol) hasCornerRecordFor(id grid.NodeID, c grid.Coord, dirs grid.DirSet) bool {
	for _, r := range p.store.At(id) {
		if box := p.store.Box(r.Block); frame.IsCorner(box, c) && frame.SurfaceDirs(box, c) == dirs {
			return true
		}
	}
	return false
}

func (p *Protocol) startRun(corner grid.NodeID, ann frame.Announcement) {
	p.seq++
	p.Started++
	p.retryCount[corner]++
	n := p.m.Shape().Dims()
	r := p.getRun()
	r.id = p.seq
	r.initiator = corner
	r.deadline = p.round + p.TTL
	top := p.getSub()
	top.r = r
	top.level = n
	for i := 0; i < n; i++ {
		top.freeAxes = append(top.freeAxes, i)
	}
	top.start = corner
	top.dirs = ann.Dirs
	r.top = top
	r.subs = append(r.subs, top)
	p.runs = append(p.runs, r)
	p.retryAt[corner] = p.round + p.TTL + p.Backoff
	p.launch(r.top)
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
			w := p.getWalker()
			w.s, w.kind, w.pos = s, ringWalker, s.start
			w.dir, w.inward = pair[0], pair[1]
			w.seen.SetAt(p.m.Shape().CoordView(s.start))
			p.addWalker(w)
		}
		return
	}
	// Phase 1: k-1 edge walkers; the excluded free axis is the highest.
	s.travelAxes = s.freeAxes[:len(s.freeAxes)-1]
	if s.collected == nil {
		s.collected = make([]grid.Box, p.m.Shape().Dims())
	}
	s.deliverNode = grid.InvalidNode
	for _, a := range s.travelAxes {
		d, ok := axisDir(s.dirs, a)
		if !ok {
			s.r.failed = true
			return
		}
		w := p.getWalker()
		w.s, w.kind, w.pos = s, edgeWalker, s.start
		w.dir, w.axis = d, a
		p.addWalker(w)
	}
}

// flipAll reverses every direction in a set: the role of the node opposite
// along every announced axis.
func flipAll(dirs grid.DirSet) grid.DirSet {
	var out grid.DirSet
	for dv := 0; dv < 32; dv++ {
		if dirs.Has(grid.Dir(dv)) {
			out = out.Add(grid.Dir(dv).Opposite())
		}
	}
	return out
}

func (p *Protocol) addWalker(w *walker) {
	p.wseq++
	w.id = p.wseq
	p.walkers = append(p.walkers, w)
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

// advance moves one walker one hop (or lets a collector wait) and returns
// the number of moves performed (0 or 1).
func (p *Protocol) advance(w *walker) int {
	switch w.kind {
	case edgeWalker:
		return p.advanceEdge(w)
	case ringWalker:
		return p.advanceRing(w)
	case collectWalker:
		return p.advanceCollect(w)
	}
	return 0
}

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
	sub.r = parent.r
	sub.parent = parent
	sub.parentAxis = w.axis
	sub.isFirst = !w.spawned
	sub.level = parent.level - 1
	for _, a := range parent.freeAxes {
		if a != w.axis {
			sub.freeAxes = append(sub.freeAxes, a)
		}
	}
	sub.start = node
	sub.dirs = dirs
	parent.r.subs = append(parent.r.subs, sub)
	w.spawned = true
	p.launch(sub)
}

func (p *Protocol) advanceRing(w *walker) int {
	next := p.m.Neighbor(w.pos, w.dir)
	if next == grid.InvalidNode || p.m.Status(next) != mesh.Enabled {
		w.s.r.failed = true
		return 0
	}
	w.pos = next
	p.Hops++
	// Corner test: a ring node that is no longer alongside the section (no
	// bad neighbor toward the block) is a ring corner.
	inwardNb := p.m.Neighbor(next, w.inward)
	alongside := inwardNb != grid.InvalidNode && p.m.Status(inwardNb).Bad()
	if alongside {
		return 1
	}
	w.seen.Include(p.m.Shape().CoordView(next))
	w.legs++
	if w.legs < 2 {
		// Turn: the new move direction is the old inward direction; the
		// block is now behind the old travel direction.
		w.dir, w.inward = w.inward, w.dir.Opposite()
		return 1
	}
	// Second corner: the opposite 2-level corner. Assemble the section.
	box, ok := w.ringResult()
	if !ok {
		w.s.r.failed = true
		return 1
	}
	w.done = true
	s := w.s
	if s.ringBox == nil {
		// Copy into sub-owned storage: the walker (and its res buffer) is
		// recycled at the end of this round, the rendezvous box is not.
		s.ringNode = next
		s.ringVal.Set(box)
		s.ringBox = &s.ringVal
		return 1
	}
	if s.ringNode != next || !s.ringBox.Equal(box) {
		s.r.failed = true // the two orientations disagree: unstable
		return 1
	}
	p.completeSub(s, next, box)
	return 1
}

// ringResult turns the extremes the walker has seen into the identified
// section: the ring axes shrink by one on each side (from the shell to the
// interior), all other axes stay pinned at the walker's fixed coordinates.
// The returned box lives in the walker's reusable res buffer; callers that
// outlive the walker must copy it.
func (w *walker) ringResult() (grid.Box, bool) {
	w.res.Set(w.seen)
	for _, a := range w.s.freeAxes {
		w.res.Lo[a]++
		w.res.Hi[a]--
		if w.res.Lo[a] > w.res.Hi[a] {
			return grid.Box{}, false
		}
	}
	return w.res, true
}

func (p *Protocol) advanceCollect(w *walker) int {
	s := w.s
	if !w.folded {
		box, ok := s.r.results[w.pos]
		if !ok {
			return 0 // the section here has not been identified yet: wait
		}
		if !w.hasFirst {
			w.firstVal.Set(box)
			w.hullVal.Set(box)
			w.hasFirst = true
		} else {
			// Consistency check of phase 3: every section must have the
			// same extents on all axes other than the travel axis.
			for l := range box.Lo {
				if l == w.axis {
					continue
				}
				if box.Lo[l] != w.firstVal.Lo[l] || box.Hi[l] != w.firstVal.Hi[l] {
					s.r.failed = true
					return 0
				}
			}
			w.hullVal.Extend(box)
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
	expectNode := flipAll(s.dirs.Remove(w.dir))
	expectCorner := flipAll(s.dirs)
	switch {
	case p.det.HasRecord(next, s.level-1, expectNode):
		w.pos = next
		w.folded = false
		p.Hops++
		return 1
	case p.det.HasRecord(next, s.level, expectCorner):
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
	if s.deliverNode == grid.InvalidNode {
		s.deliverNode = corner
	} else if s.deliverNode != corner {
		s.r.failed = true
		return
	}
	if s.delivered.Has(w.dir) && !s.collected[w.axis].Equal(w.hullVal) {
		s.r.failed = true
		return
	}
	// Stash the hull in the run arena: the collector walker that owns the
	// hull buffer is recycled before the sub completes.
	s.collected[w.axis] = s.r.stash(w.hullVal)
	s.delivered = s.delivered.Add(w.dir)
	if s.delivered.Count() < len(s.travelAxes) {
		return
	}
	var final grid.Box
	haveFinal := false
	for _, a := range s.travelAxes {
		b := s.collected[a]
		if !haveFinal {
			final = b // arena-owned: stable until the run is recycled
			haveFinal = true
		} else if !final.Equal(b) {
			s.r.failed = true
			return
		}
	}
	p.completeSub(s, corner, final)
}

// completeSub finishes a sub-identification: the identified box is now
// available at the opposite corner node. A top-level completion finishes
// the run; a nested completion publishes the result for the parent's
// collector and, for the first position of an edge, triggers that
// collector.
func (p *Protocol) completeSub(s *subRun, node grid.NodeID, box grid.Box) {
	if s.parent == nil {
		s.r.done = true
		if p.OnIdentified != nil {
			p.OnIdentified(box, node)
		}
		return
	}
	s.r.results[node] = s.r.stash(box)
	parent := s.parent
	dir, _ := axisDir(parent.dirs, s.parentAxis) // launch(parent) checked it
	if s.isFirst && !parent.collectorUp.Has(dir) {
		parent.collectorUp = parent.collectorUp.Add(dir)
		w := p.getWalker()
		w.s, w.kind, w.pos = parent, collectWalker, node
		w.dir, w.axis = dir, s.parentAxis
		p.addWalker(w)
	}
}
