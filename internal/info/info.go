// Package info implements the limited-global fault-information store: the
// per-node block records that the identification and boundary constructions
// deposit, and that Algorithm 3's routing decision consults.
//
// This is the heart of the "limited global information" idea: instead of a
// routing table at every node (global information) or nothing (local
// information), only the nodes on a block's frame and boundary walls hold a
// record of that block. TotalRecords is therefore the memory-footprint
// metric of experiment E16.
//
// A block is named by a BlockID: its box is interned once in the store's box
// table, and every record, watch and in-flight construction holds the id, so
// "same block" is an integer compare and no record owns coordinate storage.
// Holders are counted (Intern/Retain/Release; Add and Remove count records)
// and an id is recycled when the last lets go: the table stays bounded.
//
// A record also carries where its node stands against the block, fixed at
// Add since neither the box nor the node can move while the record lives:
// its Definition 2 role (Role, the frame surface directions) and its
// Section 2.2 shadow steps (Shadow, the moves Algorithm 3 may demote). The
// readers — route's critical-routing rule, boundary's merge scan, ident's
// corner test — read those two words instead of re-deriving the geometry.
package info

import (
	"slices"

	"ndmesh/internal/chunk"
	"ndmesh/internal/grid"
)

// BlockID names one interned box of a Store's table. Two live ids of one
// store are equal exactly when their boxes are.
type BlockID int32

// Record is one block's information as stored at a node: the block plus the
// epoch of the construction that deposited it. Epochs order constructions so
// that a stale record (from before a block grew or shrank) can never
// overwrite a fresher one. Add fills in the node's role and shadow; a
// caller sets Block and Epoch only.
type Record struct {
	Block BlockID
	Epoch uint32
	// role and shadow are where the node stands against the block (see
	// Role and Shadow), computed by Add.
	role, shadow grid.DirSet
}

// Role returns the node's surface directions against the record's block,
// frame.SurfaceDirs(box, node): non-zero exactly when the node is on the
// block's frame shell, with one direction per extreme coordinate.
func (r Record) Role() grid.DirSet { return r.role }

// Shadow returns the steps d for which node+d lies outside the block's box
// on exactly one axis. boundary.Demotes(box, node+d, dst) can hold only for
// such a step, whatever dst, so a router tests no other step against this
// record.
func (r Record) Shadow() grid.DirSet { return r.shadow }

// Store holds every node's records and the box table; build with NewStore.
type Store struct {
	shape *grid.Shape //meshvet:keep the mesh shape, not per-trial state
	recs  [][]Record
	total int
	// lists carves the record lists: a list that outgrows its block moves
	// to one twice the size, and Clear keeps every list's block.
	lists chunk.Carver[Record]
	// coords carves each table slot's box, Lo and Hi in one block of 2n.
	coords chunk.Carver[int]
	// Box table: boxes[b] is block b's box, in storage the slot keeps for
	// good; refs[b] counts b's holders (0: a free slot, listed in free);
	// gens[b] counts the boxes slot b has taken (see Gen). The four lists
	// start with room for 64 ids and double.
	boxes []grid.Box
	refs  []int32
	gens  []uint32
	free  []BlockID
	// version counts the changes to any node's records (see Version).
	version uint64
}

// NewStore builds an empty store for a mesh of the given shape.
func NewStore(shape *grid.Shape) *Store {
	n := shape.NumNodes()
	return &Store{
		shape: shape, recs: make([][]Record, n),
		lists: chunk.New[Record](n), coords: chunk.New[int](64 * shape.Dims()),
	}
}

// Version advances whenever some node's records change — an Add or Remove
// that returns true, and every Clear — and never rewinds, so a reader that
// saw the same version twice saw the same records (an Add that only
// refreshes an epoch changes no record a router reads, and no version).
//
//meshvet:noalloc TestContentionStepAllocFree
func (s *Store) Version() uint64 { return s.version }

// Box returns b's box: the table's own, read-only and valid while b is held.
func (s *Store) Box(b BlockID) grid.Box { return s.boxes[b] }

// Gen returns b's generation: it advances each time Intern enters a box
// into b's slot and never rewinds, Clear included, so a reader that saw
// the same generation twice saw the same box there.
func (s *Store) Gen(b BlockID) uint32 { return s.gens[b] }

// Find returns the id of box if some holder names it.
func (s *Store) Find(box grid.Box) (BlockID, bool) {
	for b := range s.refs {
		if s.refs[b] > 0 && s.boxes[b].Equal(box) {
			return BlockID(b), true
		}
	}
	return 0, false
}

// Intern returns the id of box, entering a copy into the table if no holder
// names it yet, and counts the caller as a holder (see Release).
//
//meshvet:noalloc TestFaultProcessStepAllocFree
func (s *Store) Intern(box grid.Box) BlockID {
	b, ok := s.Find(box)
	switch {
	case ok:
	case len(s.free) > 0:
		b, s.free = s.free[len(s.free)-1], s.free[:len(s.free)-1]
		copy(s.boxes[b].Lo, box.Lo)
		copy(s.boxes[b].Hi, box.Hi)
		s.gens[b]++
	default:
		b = BlockID(len(s.refs))
		s.refs = chunk.Reserve(s.refs, 64)
		s.refs = append(s.refs, 0)
		s.gens = chunk.Reserve(s.gens, 64)
		s.gens = append(s.gens, 1)
		// free has room for every id refs has room for, so neither Release
		// nor Clear grows it: a rerun on a cleared store allocates nothing.
		s.free = slices.Grow(s.free, cap(s.refs)-len(s.free))
		// A new slot's box, Lo and Hi in one carved block that the slot
		// keeps for good.
		n := len(box.Lo)
		c := grid.Coord(s.coords.Make(2 * n)[:2*n])
		copy(c, box.Lo)
		copy(c[n:], box.Hi)
		s.boxes = chunk.Reserve(s.boxes, 64)
		s.boxes = append(s.boxes, grid.Box{Lo: c[:n:n], Hi: c[n:]})
	}
	s.refs[b]++
	return b
}

// Retain counts one more holder of b.
func (s *Store) Retain(b BlockID) { s.refs[b]++ }

// Release drops one holder of b; the last one frees the id for reuse.
func (s *Store) Release(b BlockID) {
	if s.refs[b]--; s.refs[b] == 0 {
		s.free = append(s.free, b)
	}
}

// At returns the records held by node id. The returned slice is owned by
// the store; callers must not mutate it.
func (s *Store) At(id grid.NodeID) []Record { return s.recs[id] }

// Has reports whether node id holds a record of block b.
//
//meshvet:noalloc TestFaultProcessStepAllocFree
func (s *Store) Has(id grid.NodeID, b BlockID) bool {
	for _, r := range s.recs[id] {
		if r.Block == b {
			return true
		}
	}
	return false
}

// Add deposits a record at node id. If the node already holds a record of
// the same block, the epoch is refreshed to the larger value and Add returns
// false (nothing new). If the node holds records whose boxes are contained
// in the new box with an older epoch — information from before the block
// grew — those records are replaced (the paper's "propagation may also incur
// a deletion of out of date boundaries"). Returns true if the node's
// information actually changed. Survivors keep their order and the new record
// goes last: the order is observable (routing ties, the history digests).
// The stored record's role and shadow are computed here, once.
//
//meshvet:noalloc TestFaultProcessStepAllocFree
func (s *Store) Add(id grid.NodeID, rec Record) bool {
	rs := s.recs[id]
	for i := range rs {
		if rs[i].Block == rec.Block {
			rs[i].Epoch = max(rs[i].Epoch, rec.Epoch)
			return false
		}
	}
	box := s.boxes[rec.Block]
	rec.role, rec.shadow = geometry(box, s.shape.CoordView(id))
	kept := rs[:0]
	for _, r := range rs {
		if r.Epoch < rec.Epoch && contained(s.boxes[r.Block], box) {
			s.total--
			s.Release(r.Block)
			continue
		}
		kept = append(kept, r)
	}
	kept = s.lists.Grow(kept, 1)
	kept = append(kept, rec)
	s.recs[id] = kept
	s.Retain(rec.Block)
	s.total++
	s.version++
	return true
}

// Remove deletes block b's record from node id, returning whether a record
// was removed. Removal is epoch-guarded: records deposited at or after
// minEpoch survive (a cancellation launched for an old construction must not
// erase newer information). The node's last record takes the freed place.
//
//meshvet:noalloc TestFaultProcessStepAllocFree
func (s *Store) Remove(id grid.NodeID, b BlockID, minEpoch uint32) bool {
	rs := s.recs[id]
	for i := range rs {
		if rs[i].Block == b && rs[i].Epoch < minEpoch {
			rs[i] = rs[len(rs)-1]
			s.recs[id] = rs[:len(rs)-1]
			s.total--
			s.Release(b)
			s.version++
			return true
		}
	}
	return false
}

// TotalRecords returns the number of records across all nodes: the memory
// metric of the limited-information model (compare N*F for global tables).
func (s *Store) TotalRecords() int { return s.total }

// NodesWithInfo returns how many nodes hold at least one record.
func (s *Store) NodesWithInfo() int {
	n := 0
	for _, rs := range s.recs {
		if len(rs) > 0 {
			n++
		}
	}
	return n
}

// Clear removes all records and frees every slot of the box table, voiding
// every id (the other holders — watches, constructions — are dropped with
// it). Capacity is retained so a cleared store refills without reallocating
// (trial reuse).
func (s *Store) Clear() {
	for i := range s.recs {
		s.recs[i] = s.recs[i][:0]
	}
	s.total = 0
	s.version++
	clear(s.refs)
	s.free = s.free[:0]
	for b := len(s.refs) - 1; b >= 0; b-- {
		s.free = append(s.free, BlockID(b))
	}
}

// geometry returns node c's role and shadow against box b (see Record) in
// one pass over the axes, since every new record pays for it. Each step d either moves c+d outside b on one
// more axis than c (leave), on one fewer (enter) or on as many (stay). The
// shadow is then the steps that end outside on exactly one axis, and the
// role — frame.SurfaceDirs(b, c) — is the entering steps of a node that
// lies within one of the span on every axis.
func geometry(b grid.Box, c grid.Coord) (role, shadow grid.DirSet) {
	var leave, enter, stay grid.DirSet
	out, far := 0, false // axes on which c lies outside b; whether one is beyond lo−1 or hi+1
	for i, v := range c {
		up, down := grid.DirPlus(i), grid.DirMinus(i)
		switch lo, hi := b.Lo[i], b.Hi[i]; {
		case v == lo-1:
			out, enter, stay = out+1, enter.Add(up), stay.Add(down)
		case v == hi+1:
			out, enter, stay = out+1, enter.Add(down), stay.Add(up)
		case v < lo || v > hi:
			out, far, stay = out+1, true, stay.Add(up).Add(down)
		default:
			if v == hi {
				leave = leave.Add(up)
			} else {
				stay = stay.Add(up)
			}
			if v == lo {
				leave = leave.Add(down)
			} else {
				stay = stay.Add(down)
			}
		}
	}
	switch out {
	case 0:
		shadow = leave
	case 1:
		shadow = stay
	case 2:
		shadow = enter
	}
	if !far {
		role = enter
	}
	return role, shadow
}

// contained reports whether inner lies entirely within outer.
func contained(inner, outer grid.Box) bool {
	for i := range inner.Lo {
		if inner.Lo[i] < outer.Lo[i] || inner.Hi[i] > outer.Hi[i] {
			return false
		}
	}
	return true
}
