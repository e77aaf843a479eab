package grid

import (
	"slices"

	"ndmesh/internal/chunk"
)

// NodeSet is a deduplicated set of node ids that is refilled every round
// without allocating: the candidate lists of the labeling and frame
// protocols, the identification queue, a boundary flood's visited set. It
// is a bitset over the shape's ids (membership) plus the member list
// (iteration, and what Clear walks), so it costs N/8 bytes plus the members
// and nothing per round once the list has grown to its working size.
type NodeSet struct {
	bits []uint64
	ids  []NodeID
}

// NewNodeSet returns an empty set over the ids [0, n).
func NewNodeSet(n int) NodeSet { return NodeSet{bits: make([]uint64, (n+63)/64)} }

// Add inserts id and reports whether it was absent.
//
//meshvet:noalloc TestNodeSetAllocFree
func (s *NodeSet) Add(id NodeID) bool {
	w, b := id>>6, uint64(1)<<(id&63)
	if s.bits[w]&b != 0 {
		return false
	}
	s.bits[w] |= b
	s.ids = append(s.ids, id)
	return true
}

// Reserve gives the member list room for n members if it has no capacity
// yet, in one allocation: a set refilled every round that n bounds (a
// protocol's candidates) takes its bound on its first growth instead of
// doubling up to it. Sets that stay small, like a boundary flood's, do not
// call it.
func (s *NodeSet) Reserve(n int) { s.ids = chunk.Reserve(s.ids, n) }

// Has reports whether id is a member.
func (s *NodeSet) Has(id NodeID) bool { return s.bits[id>>6]&(1<<(id&63)) != 0 }

// Remove deletes id if present, keeping the order of the other members; it
// costs a scan of the member list.
func (s *NodeSet) Remove(id NodeID) {
	if !s.Has(id) {
		return
	}
	s.bits[id>>6] &^= 1 << (id & 63)
	i := slices.Index(s.ids, id)
	s.ids = slices.Delete(s.ids, i, i+1)
}

// Len returns the number of members.
func (s *NodeSet) Len() int { return len(s.ids) }

// IDs returns the members in insertion order — a deterministic function of
// the Add/Remove sequence, never of hashing. The slice is the set's own
// list: read-only, and valid until the next Add, Remove or Clear.
func (s *NodeSet) IDs() []NodeID { return s.ids }

// Clear empties the set in O(members), keeping the list's capacity.
//
//meshvet:noalloc TestNodeSetAllocFree
func (s *NodeSet) Clear() {
	for _, id := range s.ids {
		s.bits[id>>6] = 0
	}
	s.ids = s.ids[:0]
}
