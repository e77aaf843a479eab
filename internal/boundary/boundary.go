// Package boundary implements the boundary construction of the paper
// (Section 2.2, Section 3, Figure 3): the placement of a faulty block's
// information on the nodes that enclose the block's dangerous areas, the
// hop-by-hop distributed propagation that performs the placement, the merge
// of boundaries that intersect another block (Figure 3(d)), and the
// deletion (cancellation) of out-of-date boundaries after a block changes.
//
// Geometry. For block B with interior box [lo_1:hi_1, ..., lo_n:hi_n] and
// an axis j, the dangerous area ("shadow") on the − side of axis j is
//
//	{ x : x_l ∈ [lo_l:hi_l] for all l ≠ j, x_j < lo_j }.
//
// A message inside this shadow whose destination lies beyond the opposite
// (+j) adjacent surface with projections inside B's span on every other
// axis has no minimal path (the block disconnects all shortest paths). The
// boundary for surface S_{+j} encloses this shadow: it starts at the edges
// of the opposite adjacent surface S_{−j} and propagates in −j — the side
// walls of the shadow:
//
//	{ x : x_i = lo_i−1 or hi_i+1 (one lateral axis i ≠ j),
//	      x_l ∈ [lo_l:hi_l] for all l ∉ {i,j},  x_j < lo_j−1 }.
//
// In 3-D these walls are exactly the straight rays of Figure 3(a-c); in
// higher dimensions they are the (n−1)-dimensional boundary the paper
// refers to, and the propagation is a one-hop-per-round flood constrained
// to the wall region. Wall nodes (and the frame shell nodes, covered by the
// identification protocol's phase 4) hold the block record that Algorithm 3
// consults to demote a preferred direction into a preferred-but-detour
// direction.
//
// A flood names blocks by info.BlockID (the store's box table) and keeps its
// region, the nodes it has visited and the nodes queued for its next front
// as one bit per node each. The region is OR-ed together from its blocks'
// placements when the flood starts or merges; markPlacement marks each once
// per box an id names. A hop walks the mesh's neighbor-table row and tests
// bits. OnWall/OnPlacement and InShadow/Trapped are the oracles
// markPlacement and the one-pass Demotes are held to.
//
// Deletion. A cancellation removes its block's older records along the old
// placement. While a deposit of the same block with an older epoch is still
// in flight, it also leaves a tombstone at each node it visits, and that
// deposit stops where it meets one instead of re-covering swept nodes. No
// other deposit can meet a tombstone it must stop at — epochs only grow, so
// a deposit started later is newer than every tombstone — so a cancellation
// with no older deposit in flight leaves none; it only refreshes the ones it
// finds while a newer deposit of its block is in flight, and every deposit
// stops exactly where it would if every visit left a tombstone.
package boundary

import (
	"slices"

	"ndmesh/internal/chunk"
	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
)

// markPlacement is the one placement enumerator: it sets, in the N-bit set
// bits, every mesh node of b's placement, as a union of clipped boxes — per
// axis i and extreme e (lo−1 or hi+1), the frame-shell slab x_i = e and, per
// shadow axis j ≠ i and side, the wall x_i = e from just beyond the shell to
// the mesh border. It allocates nothing.
//
//meshvet:noalloc TestPlacementEnumeratorAllocFree
func markPlacement(shape *grid.Shape, b grid.Box, bits []uint64) {
	var lo, hi [grid.MaxDims]int
	n := b.Dims()
	for i := 0; i < n; i++ {
		for _, e := range [2]int{b.Lo[i] - 1, b.Hi[i] + 1} {
			if e < 0 || e >= shape.Radix(i) {
				continue
			}
			for l := 0; l < n; l++ {
				lo[l], hi[l] = b.Lo[l]-1, b.Hi[l]+1
			}
			lo[i], hi[i] = e, e
			markBox(shape, lo[:n], hi[:n], bits, n-1, 0)
			copy(lo[:n], b.Lo)
			copy(hi[:n], b.Hi)
			lo[i], hi[i] = e, e
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				lo[j], hi[j] = 0, b.Lo[j]-2
				markBox(shape, lo[:n], hi[:n], bits, n-1, 0)
				lo[j], hi[j] = b.Hi[j]+2, shape.Radix(j)-1
				markBox(shape, lo[:n], hi[:n], bits, n-1, 0)
				lo[j], hi[j] = b.Lo[j], b.Hi[j]
			}
		}
	}
}

// markBox sets the bit of every mesh node inside [lo, hi] clipped to the
// mesh, axis by axis from a down; id is the offset of the axes above a.
// Axis 0 has stride 1, so each of its rows is one run of ids.
//
//meshvet:noalloc TestPlacementEnumeratorAllocFree
func markBox(shape *grid.Shape, lo, hi []int, bits []uint64, a, id int) {
	from, to := max(lo[a], 0), min(hi[a], shape.Radix(a)-1)
	if a == 0 {
		markRun(bits, id+from, id+to)
		return
	}
	for x := from; x <= to; x++ {
		markBox(shape, lo, hi, bits, a-1, id+x*shape.Stride(a))
	}
}

// markRun sets bits from through to of the set (none when to < from), a
// word at a time.
//
//meshvet:noalloc TestPlacementEnumeratorAllocFree
func markRun(bits []uint64, from, to int) {
	if to < from {
		return
	}
	first, last := from>>6, to>>6
	head, tail := ^uint64(0)<<(from&63), ^uint64(0)>>(63-to&63)
	if first == last {
		bits[first] |= head & tail
		return
	}
	bits[first] |= head
	for w := first + 1; w < last; w++ {
		bits[w] = ^uint64(0)
	}
	bits[last] |= tail
}

// Demotes is InShadow(b, w) && Trapped(b, d, axis, negSide) in one pass:
// w lies in b's shadow and d beyond the opposite surface (Algorithm 3).
func Demotes(b grid.Box, w, d grid.Coord) bool {
	across := 0 // axes on which w and d face each other across the span
	for i, lo := range b.Lo {
		switch hi := b.Hi[i]; {
		case w[i] < lo && d[i] > hi, w[i] > hi && d[i] < lo:
			across++
		case w[i] < lo || w[i] > hi || d[i] < lo || d[i] > hi:
			return false
		}
	}
	return across == 1
}

// Op selects what a construction does at each visited node.
type Op uint8

const (
	// Deposit adds the block record (boundary construction).
	Deposit Op = iota
	// Cancel removes records with the construction's box and an older
	// epoch (deletion of out-of-date boundaries).
	Cancel
)

// markRule is what a cancellation's hops in one round do to its block's
// tombstones (see Protocol.markRule).
type markRule uint8

const (
	// noMarks: no deposit of the block is in flight; the hops leave and
	// refresh nothing.
	noMarks markRule = iota
	// refreshMarks: only deposits newer than the cancellation are in
	// flight; a hop refreshes the mark it finds but leaves none.
	refreshMarks
	// leaveMarks: a deposit older than the cancellation is in flight; a hop
	// leaves its mark or refreshes the one there.
	leaveMarks
)

// Construction is one in-flight boundary flood: a deposit of a freshly
// identified block's record over its placement, or a cancellation of a
// stale record over the old placement. Floods advance one hop per round
// from their seed nodes, constrained to the placement region; when a flood
// reaches a node holding a *different* block's record, the region is
// extended with that block's placement — the boundary merge of Fig. 3(d).
type Construction struct {
	// Block is the subject block (the record deposited or cancelled).
	Block info.BlockID
	// Epoch orders this construction against others for the same region.
	Epoch uint32
	// Op is Deposit or Cancel.
	Op Op
	// marks is a cancellation's markRule for the round in progress.
	marks markRule

	// bases are the blocks whose placements make up the region — Block,
	// then the merge extensions — each held in the store's table until the
	// flood retires; region is their union, visited the nodes the flood
	// has been to and queued the nodes of the front being built, one bit
	// per node each.
	bases   []info.BlockID
	region  []uint64
	visited []uint64
	queued  []uint64
	// frontier/next are the double-buffered flood fronts; roundOne swaps
	// them so a long-lived construction allocates no per-round slice.
	frontier []grid.NodeID
	next     []grid.NodeID
	// Rounds counts propagation rounds so far (contributes to c_i).
	Rounds int
}

// Done reports whether the flood has exhausted its frontier.
func (c *Construction) Done() bool { return len(c.frontier) == 0 }

// tomb is a cancellation's mark at node: a deposit of block older than
// epoch that arrives later stops there. round is when the mark was left or
// last refreshed (-1 on a free slot); next links the node's marks, and the
// free slots, as 1 + slot index (0 ends the list).
type tomb struct {
	node  grid.NodeID
	block info.BlockID
	epoch uint32
	next  int32
	round int
}

// placement is a block's placement bits, marked for the box its id held
// at generation gen (info.Store.Gen; 0, which no box has, on a new entry).
type placement struct {
	gen  uint32
	bits []uint64
}

// tombAt is one entry of the expiry queue: slot's mark as left in round.
type tombAt struct {
	slot  int32
	round int
}

// Protocol runs all in-flight boundary constructions, one hop per round.
type Protocol struct {
	m     *mesh.Mesh  //meshvet:keep dependency, not per-trial state
	store *info.Store //meshvet:keep dependency, not per-trial state
	cons  []*Construction
	// spare recycles retired constructions; Start reuses them so a fault
	// process cycling blocks through the protocol allocates nothing once
	// warm. Their bitsets, fronts and bases and the placement cache's
	// bitsets are carved from chunks (internal/chunk): a cold fill costs an
	// allocation per chunk, and every carved block stays with its owner
	// across Reset.
	spare chunk.Pool[Construction]
	words chunk.Carver[uint64]       //meshvet:keep carves the constructions' and placements' bitsets
	nodes chunk.Carver[grid.NodeID]  //meshvet:keep carves the fronts
	ids   chunk.Carver[info.BlockID] //meshvet:keep carves the bases
	// Cancel tombstones: tombs is the slot arena, firstTomb[id] links node
	// id's marks (made by the first cancel, so a protocol that never
	// cancels holds none) and freeTomb the free slots. expiry lists every
	// mark in the order it was left or refreshed, from index expired on; a
	// mark lives ttl rounds unless a newer deposit of its block drops it.
	tombs     []tomb
	firstTomb []int32
	freeTomb  int32
	expiry    []tombAt
	expired   int
	ttl       int //meshvet:keep derived from the mesh shape
	// round counts Round calls; live counts the marks held.
	round, live int
	// placed[b] is the placement of the box block id b last named; an id
	// keeps its entry when the store recycles it, remarked on first use.
	placed []placement //meshvet:keep a cache checked against the generation it was marked for
	// Hops counts total node visits across constructions (message cost).
	Hops int
}

// NewProtocol builds an empty boundary protocol over m and store. It
// allocates no chunk until the first construction starts.
func NewProtocol(m *mesh.Mesh, store *info.Store) *Protocol {
	n, words := m.NumNodes(), (m.NumNodes()+63)/64
	return &Protocol{
		m: m, store: store, ttl: m.Shape().Diameter(),
		spare: chunk.NewPool[Construction](consPerChunk, consPerChunk),
		words: chunk.New[uint64](4 * consPerChunk * words),
		nodes: chunk.New[grid.NodeID](4 * n),
		ids:   chunk.New[info.BlockID](16 * consPerChunk),
	}
}

// consPerChunk is how many constructions (and as many placements) the first
// chunk of each kind is sized for.
const consPerChunk = 16

// Reset abandons every in-flight construction and every tombstone so the
// protocol can be reused for a new trial; the constructions land on the
// free list and the tombstone storage keeps its capacity. The free list is
// left in the order the constructions were made, the first on top, so a
// rerun of one trial gets the construction (and the buffer capacity) it
// had the first time at every Start.
func (p *Protocol) Reset() {
	for _, c := range p.cons {
		p.retire(c)
	}
	p.cons = p.cons[:0]
	p.spare.Restack()
	// Every mark held has an unexpired queue entry, so this clears every
	// node that holds one.
	for _, e := range p.expiry[p.expired:] {
		p.firstTomb[p.tombs[e.slot].node] = 0
	}
	p.tombs, p.freeTomb = p.tombs[:0], 0
	p.expiry, p.expired = p.expiry[:0], 0
	p.round, p.live = 0, 0
	p.Hops = 0
}

// Start registers a construction for block b (held in the store's table
// until the flood retires) seeded at the given nodes, processed in round 1.
// Deposits seed from the block's frame (typically its corners and edge
// nodes, which received the record in identification phase 4); cancels
// seed from the node that detected the stale record. The seeds slice is
// copied, not retained; a recycled construction keeps every buffer.
func (p *Protocol) Start(b info.BlockID, epoch uint32, op Op, seeds []grid.NodeID) *Construction {
	c, fresh := p.spare.Get()
	if fresh {
		words := (p.m.NumNodes() + 63) / 64
		bits := p.words.Make(3 * words)[:3*words]
		c.region, c.visited, c.queued = bits[:words:words], bits[words:2*words:2*words], bits[2*words:]
	}
	clear(c.region)
	clear(c.visited)
	clear(c.queued)
	if op == Cancel && p.firstTomb == nil {
		p.firstTomb = make([]int32, p.m.NumNodes())
	}
	c.Block, c.Epoch, c.Op, c.Rounds = b, epoch, op, 0
	c.frontier = p.nodes.Grow(c.frontier[:0], len(seeds))
	c.frontier = append(c.frontier, seeds...)
	p.addBase(c, b)
	p.cons = chunk.Reserve(p.cons, 2*consPerChunk)
	p.cons = append(p.cons, c)
	return c
}

// addBase extends c's region with block b's placement, marked once per box
// an id names.
func (p *Protocol) addBase(c *Construction, b info.BlockID) {
	p.store.Retain(b)
	c.bases = p.ids.Grow(c.bases, 1)
	c.bases = append(c.bases, b)
	for int(b) >= len(p.placed) {
		p.placed = chunk.Reserve(p.placed, consPerChunk)
		p.placed = append(p.placed, placement{})
	}
	pl := &p.placed[b]
	if pl.bits == nil {
		// One set per box-table slot, kept across Reset.
		pl.bits = p.words.Make(len(c.region))[:len(c.region)]
	}
	if gen := p.store.Gen(b); pl.gen != gen {
		clear(pl.bits)
		pl.gen = gen
		markPlacement(p.m.Shape(), p.store.Box(b), pl.bits)
	}
	for i, w := range pl.bits {
		c.region[i] |= w
	}
}

// retire lets go of a finished construction's blocks and parks it for reuse.
// It undoes an odd count of front swaps, so each front buffer keeps its role
// from one use to the next and a rerun finds it as large as it grew.
func (p *Protocol) retire(c *Construction) {
	for _, b := range c.bases {
		p.store.Release(b)
	}
	c.bases = c.bases[:0]
	if c.Rounds%2 == 1 {
		c.frontier, c.next = c.next, c.frontier
	}
	p.spare.Put(c)
}

// Quiescent reports whether no construction is in flight.
func (p *Protocol) Quiescent() bool { return len(p.cons) == 0 }

// Round advances every construction one hop and retires the finished ones
// onto the free list. It returns the number of node visits performed (0 at
// quiescence).
//
//meshvet:noalloc TestFaultProcessStepAllocFree
func (p *Protocol) Round() int {
	p.round++
	p.expire()
	for _, c := range p.cons {
		if c.Op == Cancel {
			c.marks = p.markRule(c)
		}
	}
	visits := 0
	kept := p.cons[:0]
	for _, c := range p.cons {
		visits += p.roundOne(c)
		if !c.Done() {
			kept = append(kept, c)
		} else {
			p.retire(c)
		}
	}
	p.cons = kept
	p.Hops += visits
	return visits
}

// markRule decides, once per round, what cancellation c's hops do to its
// block's marks. A mark stops only a deposit of its block older than the
// mark, and epochs only grow: a deposit started later is newer than c and
// every mark so far, and a retired one visits nothing. So c leaves marks only
// while a deposit older than c is in flight. While only newer deposits are,
// a mark a newer cancellation left may still stop one of them, so c
// refreshes the marks it finds, as marking every hop would; with none in
// flight it touches nothing.
//
//meshvet:noalloc TestCancelHeavyRoundsAllocFree
func (p *Protocol) markRule(c *Construction) markRule {
	rule := noMarks
	for _, d := range p.cons {
		if d.Op != Deposit || d.Block != c.Block {
			continue
		}
		if d.Epoch < c.Epoch {
			return leaveMarks
		}
		rule = refreshMarks
	}
	return rule
}

//meshvet:noalloc TestFaultProcessStepAllocFree
func (p *Protocol) roundOne(c *Construction) int {
	// queued marks the nodes of the front being built, so each joins it
	// once; a node of the current front not yet reached this round may
	// still join the next one, as it always has (the flood then spends one
	// more round, visiting nothing).
	for _, id := range c.frontier {
		c.queued[id>>6] &^= 1 << (id & 63)
	}
	next := c.next[:0]
	visits := 0
	for _, id := range c.frontier {
		if c.visited[id>>6]&(1<<(id&63)) != 0 {
			continue
		}
		c.visited[id>>6] |= 1 << (id & 63)
		// Only enabled nodes carry and forward a deposit; a deposit
		// reaching a disabled/faulty node stops there (the block in the
		// way is handled by the merge rule below at its adjacent nodes).
		status := p.m.Status(id)
		switch c.Op {
		case Deposit:
			// A deposit that a newer cancellation of its block has
			// outrun stops here: it neither deposits nor forwards.
			if status != mesh.Enabled || p.outrun(id, c) {
				continue
			}
			p.store.Add(id, info.Record{Block: c.Block, Epoch: c.Epoch})
		case Cancel:
			// A cancellation clears the record whatever the node's
			// status: a node a block swallowed would otherwise get the
			// record back when it is enabled again. It crosses disabled
			// and clean nodes, which still relay messages; only a faulty
			// node stops it.
			p.store.Remove(id, c.Block, c.Epoch)
			if c.marks != noMarks {
				p.entomb(id, c)
			}
		}
		visits++
		if status == mesh.Faulty {
			continue
		}
		// Merge (Fig. 3(d)): when the propagation reaches a node of
		// another block's *frame* — "the first adjacent node of the second
		// block it reaches" — the flood extends across that block's
		// placement, merging into its surfaces and boundary. Merely
		// crossing another block's distant wall is not an intersection
		// with the block and must not merge: a record's role, fixed when it
		// was deposited, says whether its node is on the block's frame.
		// (bases[0] is the flood's own block, so one membership test skips
		// it and the blocks already merged.) A cancellation crossing a
		// disabled or clean node merges nothing there: that node carries
		// no information.
		if status == mesh.Enabled {
			for _, r := range p.store.At(id) {
				if r.Role() != 0 && !slices.Contains(c.bases, r.Block) {
					p.addBase(c, r.Block)
				}
			}
		}
		// A neighbor neither visited nor queued joins the next front when it
		// lies in the region. Which neighbors join is unpredictable hop to
		// hop, so the test is arithmetic, and every neighbor is appended and
		// then kept or cut off again, into room made for all of them.
		cancel := c.Op == Cancel
		nbs := p.m.Neighbors(id)
		next = p.nodes.Grow(next, len(nbs))
		for _, nb := range nbs {
			if nb == grid.InvalidNode {
				continue
			}
			w, b := nb>>6, uint(nb&63)
			fresh := ^(c.visited[w] | c.queued[w]) >> b & 1
			take := c.region[w] >> b & fresh
			// A cancellation also follows the trail of nodes actually
			// holding the record: merged boundaries parked the record on
			// other blocks' placements, and those blocks may be gone by
			// deletion time, so geometry alone cannot retrace the deposit.
			if cancel && take < fresh && p.store.Has(nb, c.Block) {
				take = 1
			}
			c.queued[w] |= take << b
			next = append(next, nb)
			next = next[:len(next)-1+int(take)]
		}
	}
	c.next = c.frontier[:0]
	c.frontier = next
	c.Rounds++
	return visits
}

// entomb refreshes the mark cancellation c's block has at node id, or leaves
// c's mark there when c's rule for this round says so.
//
//meshvet:noalloc TestCancelHeavyRoundsAllocFree
func (p *Protocol) entomb(id grid.NodeID, c *Construction) {
	slot := p.findTomb(id, c.Block)
	switch {
	case slot >= 0:
		t := &p.tombs[slot]
		t.epoch, t.round = max(t.epoch, c.Epoch), p.round
	case c.marks != leaveMarks:
		return
	default:
		if p.freeTomb > 0 {
			slot = p.freeTomb - 1
			p.freeTomb = p.tombs[slot].next
		} else {
			// The arena grows to the most marks held at once and keeps its
			// slots across Reset.
			slot = int32(len(p.tombs))
			p.tombs = chunk.Reserve(p.tombs, p.m.NumNodes())
			p.tombs = append(p.tombs, tomb{})
		}
		p.tombs[slot] = tomb{id, c.Block, c.Epoch, p.firstTomb[id], p.round}
		p.firstTomb[id], p.live = slot+1, p.live+1
	}
	// The queue grows to the marks left within one ttl and keeps its
	// capacity.
	p.expiry = chunk.Reserve(p.expiry, p.m.NumNodes())
	p.expiry = append(p.expiry, tombAt{slot, p.round})
}

// findTomb returns the slot of block b's mark at node id, or -1.
//
//meshvet:noalloc TestCancelHeavyRoundsAllocFree
func (p *Protocol) findTomb(id grid.NodeID, b info.BlockID) int32 {
	for s := p.firstTomb[id]; s != 0; s = p.tombs[s-1].next {
		if p.tombs[s-1].block == b {
			return s - 1
		}
	}
	return -1
}

// outrun reports whether a cancellation newer than deposit c has left its
// mark at node id. A mark older than c is dropped: c supersedes it.
//
//meshvet:noalloc TestCancelHeavyRoundsAllocFree
func (p *Protocol) outrun(id grid.NodeID, c *Construction) bool {
	if p.live == 0 {
		return false // also: no cancellation yet, so no per-node heads
	}
	slot := p.findTomb(id, c.Block)
	if slot < 0 {
		return false
	}
	if p.tombs[slot].epoch > c.Epoch {
		return true
	}
	p.drop(slot)
	return false
}

// drop unlinks the mark in slot from its node and frees the slot.
//
//meshvet:noalloc TestCancelHeavyRoundsAllocFree
func (p *Protocol) drop(slot int32) {
	at := &p.firstTomb[p.tombs[slot].node]
	for *at != slot+1 {
		at = &p.tombs[*at-1].next
	}
	*at = p.tombs[slot].next
	p.tombs[slot] = tomb{next: p.freeTomb, round: -1}
	p.freeTomb = slot + 1
	p.live--
}

// expire drops the marks left or refreshed ttl rounds ago, and compacts the
// queue once its expired part dominates. An entry whose slot has since
// been refreshed, dropped or reused shows another round and is skipped (a
// slot reused in the same round expires with it either way).
//
//meshvet:noalloc TestCancelHeavyRoundsAllocFree
func (p *Protocol) expire() {
	for ; p.expired < len(p.expiry); p.expired++ {
		e := p.expiry[p.expired]
		if p.round-e.round < p.ttl {
			break
		}
		if p.tombs[e.slot].round == e.round {
			p.drop(e.slot)
		}
	}
	if p.expired > len(p.expiry)/2 {
		n := copy(p.expiry, p.expiry[p.expired:])
		p.expiry, p.expired = p.expiry[:n], 0
	}
}
