// Package core orchestrates the paper's limited-global fault-information
// model: it wires the labeling protocol (Algorithm 1, internal/block), the
// frame-level detection (Definition 2, internal/frame), the identification
// process (Algorithm 2, internal/ident) and the boundary construction with
// merge and cancellation (internal/boundary) into a single per-round state
// machine over one mesh and one information store.
//
// One call to Model.Round is one synchronous round of "fault information
// exchanges and update" in the step model of Figure 7; the execution engine
// (internal/engine) calls it λ times per step. The model is reactive: a
// round with no pending work costs almost nothing.
//
// The orchestrator also implements the deletion trigger of Section 3: a
// constructed block is watched through its n-level corners, and when a
// corner "finds that its existing condition cannot be satisfied" (after a
// recovery shrank or dissolved the block) a cancellation flood is launched
// over the old placement.
package core

import (
	"bytes"
	"slices"
	"strconv"

	"ndmesh/internal/block"
	"ndmesh/internal/boundary"
	"ndmesh/internal/chunk"
	"ndmesh/internal/frame"
	"ndmesh/internal/grid"
	"ndmesh/internal/ident"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
)

// watchStrikes is how many consecutive inconsistent rounds a corner must
// observe before triggering deletion; it rides out single-round transients
// of the labeling wave.
const watchStrikes = 2

// watched tracks one constructed block: its id in the store's box table
// (held until the watch retires), frame corners, and the per-corner
// inconsistency strike counter.
type watched struct {
	block   info.BlockID
	corners []cornerRole
	strikes int
}

// cornerRole is one n-level corner of a watched block and its role there: the
// surface directions (frame.SurfaceDirs) it must keep announcing.
type cornerRole struct {
	node grid.NodeID
	role grid.DirSet
}

// Model is the limited-global fault-information model over one mesh.
type Model struct {
	M        *mesh.Mesh
	Labeling *block.Stepper
	Detector *frame.Detector
	Ident    *ident.Protocol
	Boundary *boundary.Protocol
	Store    *info.Store

	epoch uint32
	round int
	// watches holds the constructed blocks in the byte order of their boxes
	// formatted as grid.Box.String does — the order the deletion trigger
	// visits them, and so the order cancellation epochs are assigned.
	// scratch is where onIdentified builds each frame corner, and boxText
	// where compareWatch formats the two boxes it compares.
	watches []*watched
	scratch grid.Coord //meshvet:keep scratch buffer, overwritten before every use
	boxText []byte     //meshvet:keep scratch buffer, overwritten before every use

	// seedBuf and spare make the identification path allocation-free once
	// warm: flood seeds are staged in seedBuf (boundary.Start copies them),
	// and retired watch objects are recycled through spare with their
	// corner storage, which is carved from chunks (internal/chunk): a cold
	// fill costs an allocation per chunk, and every carved block stays with
	// its owner across Reset.
	seedBuf []grid.NodeID //meshvet:keep staging buffer, copied out by boundary.Start
	spare   chunk.Pool[watched]
	corners chunk.Carver[cornerRole] //meshvet:keep carves the corner lists their watches keep

	// Last activity rounds, for convergence accounting (a_i, b_i, c_i).
	LastLabelRound, LastFrameRound, LastIdentRound, LastBoundaryRound int
	// CancelsStarted counts deletion floods launched.
	CancelsStarted int
}

// New builds the model over an existing mesh. If the mesh already has
// faults, call Stabilize once before running steps.
func New(m *mesh.Mesh) *Model {
	store := info.NewStore(m.Shape())
	det := frame.NewDetector(m)
	n := m.Shape().Dims()
	md := &Model{
		M:        m,
		Labeling: block.NewStepper(m),
		Detector: det,
		Ident:    ident.NewProtocol(m, det, store),
		Boundary: boundary.NewProtocol(m, store),
		Store:    store,
		scratch:  make(grid.Coord, n),
		spare:    chunk.NewPool[watched](watchesPerChunk, watchesPerChunk),
		corners:  chunk.New[cornerRole](watchesPerChunk << n),
	}
	md.Ident.OnIdentified = md.onIdentified
	return md
}

// watchesPerChunk is how many watches the first chunk of watch objects or
// corner lists is sized for.
const watchesPerChunk = 16

// RoundCount returns the current global round counter.
func (md *Model) RoundCount() int { return md.round }

// Reset rewinds the model to the fault-free state over the same mesh so it
// can be reused for a new trial: the mesh statuses, every protocol, the
// information store, the watches and all convergence accounting are
// cleared, while every internal buffer keeps its capacity. A reset model is
// observationally identical to core.New over a reset mesh.
func (md *Model) Reset() {
	md.M.Reset()
	md.Labeling.Reset()
	md.Detector.Reset()
	md.Ident.Reset()
	md.Boundary.Reset()
	md.Store.Clear()
	md.epoch = 0
	md.round = 0
	md.spare.Put(md.watches...)
	md.spare.Restack()
	md.watches = md.watches[:0]
	md.LastLabelRound, md.LastFrameRound, md.LastIdentRound, md.LastBoundaryRound = 0, 0, 0, 0
	md.CancelsStarted = 0
}

// ApplyFault injects fault occurrence f_i at node id (detected by its
// neighbors at the next round, per the fault-detection phase of Figure 7).
func (md *Model) ApplyFault(id grid.NodeID) {
	md.M.Fail(id)
	md.Labeling.Seed(id)
	md.Detector.Seed(id)
}

// ApplyRecovery applies rule 5: the faulty node becomes clean.
func (md *Model) ApplyRecovery(id grid.NodeID) {
	md.M.Recover(id)
	md.Labeling.Seed(id)
	md.Detector.Seed(id)
}

// Round executes one synchronous round of all information constructions:
// one labeling round, one frame-announcement round, one hop of every
// identification message, one hop of every boundary/cancellation flood, and
// the deletion-trigger watch. It returns the total activity (0 when fully
// quiescent).
func (md *Model) Round() int {
	md.round++
	activity := 0

	if ch := md.Labeling.Round(); ch > 0 {
		activity += ch
		md.LastLabelRound = md.round
		md.Detector.Seed(md.Labeling.LastChanged()...)
	}
	if ch := md.Detector.Round(); ch > 0 {
		activity += ch
		md.LastFrameRound = md.round
		md.Ident.Notify(md.Detector.Changed()...)
	}
	if ch := md.Ident.Round(); ch > 0 {
		activity += ch
		md.LastIdentRound = md.round
	}
	if ch := md.Boundary.Round(); ch > 0 {
		activity += ch
		md.LastBoundaryRound = md.round
	}
	activity += md.watchCorners()
	return activity
}

// Quiescent reports whether every construction is at its fixed point.
func (md *Model) Quiescent() bool {
	return md.Labeling.Quiescent() && md.Detector.Quiescent() &&
		md.Ident.Quiescent() && md.Boundary.Quiescent()
}

// Stabilize runs rounds until quiescence (bounded by a safety cap) and
// returns the number of rounds with activity. Used by tests and by the
// setup of meshes with pre-existing faults.
func (md *Model) Stabilize() int {
	roundCap := 16*(md.M.Shape().Diameter()+2) + 8*md.Ident.TTL
	rounds := 0
	for !md.Quiescent() && rounds < roundCap {
		md.Round()
		rounds++
	}
	return rounds
}

// onIdentified launches the combined phase-4 / boundary-construction flood
// for a freshly identified block: the record propagates from the opposite
// corner over the block's frame shell and down its boundary walls, merging
// into other blocks' placements where they intersect (Fig. 3(d)).
func (md *Model) onIdentified(box grid.Box, corner grid.NodeID) {
	at, dup := slices.BinarySearchFunc(md.watches, box, md.compareWatch)
	if dup {
		return // already constructed (another corner's run finished first)
	}
	w, fresh := md.spare.Get()
	if fresh {
		w.corners = md.corners.Make(1 << box.Dims())
	}
	w.corners, w.strikes = w.corners[:0], 0
	md.epoch++
	w.block = md.Store.Intern(box)
	md.seedBuf = append(md.seedBuf[:0], corner)
	md.Boundary.Start(w.block, md.epoch, boundary.Deposit, md.seedBuf)
	// Enumerate the frame corners (frame.Corners order: mask bit i selects
	// Hi[i]+1, surface direction -i, over Lo[i]-1, surface direction +i)
	// into the scratch coordinate — the corner list feeds cancellation
	// seeds, so the order must stay exactly this.
	shape := md.M.Shape()
	n := shape.Dims()
	for mask := 0; mask < 1<<uint(n); mask++ {
		c := md.scratch
		var role grid.DirSet
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				c[i], role = box.Hi[i]+1, role.Add(grid.DirMinus(i))
			} else {
				c[i], role = box.Lo[i]-1, role.Add(grid.DirPlus(i))
			}
		}
		if shape.Contains(c) {
			w.corners = append(w.corners, cornerRole{shape.Index(c), role})
		}
	}
	md.watches = chunk.Reserve(md.watches, 4*watchesPerChunk)
	md.watches = slices.Insert(md.watches, at, w)
	md.LastBoundaryRound = md.round
}

// compareWatch orders w's box against box by their bytes as grid.Box.String
// formats them, both into boxText — the watch list is sorted this way, so
// the format is part of the deletion-trigger visit order.
func (md *Model) compareWatch(w *watched, box grid.Box) int {
	text := appendBox(md.boxText[:0], md.Store.Box(w.block))
	k := len(text)
	md.boxText = appendBox(text, box)
	return bytes.Compare(md.boxText[:k], md.boxText[k:])
}

// appendBox formats box exactly as grid.Box.String does.
func appendBox(buf []byte, box grid.Box) []byte {
	buf = append(buf, '[')
	for i := range box.Lo {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = strconv.AppendInt(buf, int64(box.Lo[i]), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(box.Hi[i]), 10)
	}
	return append(buf, ']')
}

// watchCorners implements the deletion trigger: when a corner of a
// constructed block reports an inconsistent frame announcement for
// watchStrikes consecutive rounds (with no clean wave in flight), the
// block's old information is cancelled along its old placement. Watches are
// visited in list order for determinism; retired ones are compacted away in
// place.
func (md *Model) watchCorners() int {
	activity := 0
	kept := md.watches[:0]
	for _, w := range md.watches {
		if md.cornersConsistent(w) {
			w.strikes = 0
		} else {
			w.strikes++
		}
		if w.strikes < watchStrikes {
			kept = append(kept, w)
			continue
		}
		// Launch the cancellation flood from the enabled corners; epoch
		// guards ensure newer records survive the deletion.
		md.epoch++
		seeds := md.enabledPlacementSeeds(w)
		if len(seeds) > 0 {
			md.Boundary.Start(w.block, md.epoch, boundary.Cancel, seeds)
			md.CancelsStarted++
			md.LastBoundaryRound = md.round
			activity++
		}
		md.Store.Release(w.block)
		md.spare.Put(w)
	}
	md.watches = kept
	return activity
}

// cornersConsistent reports whether the watched block's corners still
// observe the conditions of its existence: every enabled corner must
// announce level n with exactly the surface directions of the box. A
// disabled corner means the block grew over it — growth is handled by
// dominated-record replacement, not deletion. When the block shrank or
// dissolved after recoveries, some old corner loses the property and the
// watch reports inconsistency.
func (md *Model) cornersConsistent(w *watched) bool {
	if md.M.NumClean() > 0 {
		return true // a clean wave is in flight: wait for it to settle
	}
	n := md.M.Shape().Dims()
	for _, c := range w.corners {
		if md.M.Status(c.node) == mesh.Enabled && !md.Detector.HasRecord(c.node, n, c.role) {
			return false
		}
	}
	return true
}

// enabledPlacementSeeds returns the enabled corner nodes of the old box
// (cancellation starts from the corners that detected the change). The
// returned slice is the model's reusable seed buffer — valid only until the
// next identification or cancellation (boundary.Start copies it).
func (md *Model) enabledPlacementSeeds(w *watched) []grid.NodeID {
	seeds := md.seedBuf[:0]
	for _, c := range w.corners {
		if md.M.Status(c.node) == mesh.Enabled {
			seeds = append(seeds, c.node)
		}
	}
	md.seedBuf = seeds
	return seeds
}
