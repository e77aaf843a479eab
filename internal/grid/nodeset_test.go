package grid

import (
	"slices"
	"testing"
)

func TestNodeSetAddDedups(t *testing.T) {
	s := NewNodeSet(130)
	for _, id := range []NodeID{5, 64, 129, 0} {
		if !s.Add(id) {
			t.Errorf("first Add(%d) reported a duplicate", id)
		}
	}
	for _, id := range []NodeID{64, 5} {
		if s.Add(id) {
			t.Errorf("second Add(%d) reported a new member", id)
		}
	}
	if got, want := s.IDs(), []NodeID{5, 64, 129, 0}; !slices.Equal(got, want) || s.Len() != 4 {
		t.Fatalf("IDs() = %v (Len %d), want %v", got, s.Len(), want)
	}
	if s.Has(1) || s.Has(63) || s.Has(128) || !s.Has(129) {
		t.Error("Has disagrees with the members")
	}
}

// TestNodeSetOrderReproducible: the iteration order is a function of the
// Add/Remove script alone — two sets fed the same script (one of them with
// an earlier life behind it) list the same members in the same order.
func TestNodeSetOrderReproducible(t *testing.T) {
	script := func(s *NodeSet) {
		for _, id := range []NodeID{9, 3, 70, 3, 41, 9, 12} {
			s.Add(id)
		}
		s.Remove(70)
		s.Remove(8) // absent: no effect
		s.Add(2)
		s.Remove(9)
		s.Add(70)
	}
	a, b := NewNodeSet(100), NewNodeSet(100)
	for id := NodeID(99); id >= 50; id-- {
		b.Add(id)
	}
	b.Clear()
	script(&a)
	script(&b)
	want := []NodeID{3, 41, 12, 2, 70}
	if !slices.Equal(a.IDs(), want) || !slices.Equal(b.IDs(), want) {
		t.Fatalf("IDs() = %v and %v, want %v", a.IDs(), b.IDs(), want)
	}
}

func TestNodeSetRemoveThenAdd(t *testing.T) {
	s := NewNodeSet(64)
	s.Add(7)
	s.Add(8)
	s.Remove(7)
	if s.Has(7) || s.Len() != 1 {
		t.Fatalf("after Remove: Has(7)=%v Len=%d", s.Has(7), s.Len())
	}
	if !s.Add(7) {
		t.Error("Add after Remove reported a duplicate")
	}
	if want := []NodeID{8, 7}; !slices.Equal(s.IDs(), want) {
		t.Fatalf("IDs() = %v, want %v", s.IDs(), want)
	}
}

func TestNodeSetClear(t *testing.T) {
	const n = 200
	s := NewNodeSet(n)
	for id := NodeID(0); id < n; id += 3 {
		s.Add(id)
	}
	s.Clear()
	if s.Len() != 0 || len(s.IDs()) != 0 {
		t.Fatalf("Len after Clear = %d", s.Len())
	}
	for id := NodeID(0); id < n; id++ {
		if s.Has(id) {
			t.Fatalf("Has(%d) after Clear", id)
		}
	}
}

// TestNodeSetAllocFree: once the member list has grown to its working size,
// a refill/Clear cycle — one protocol round — allocates nothing.
func TestNodeSetAllocFree(t *testing.T) {
	const n = 1024
	s := NewNodeSet(n)
	cycle := func() {
		for id := NodeID(0); id < n; id += 2 {
			s.Add(id)
			s.Add(id) // duplicate
		}
		s.Clear()
	}
	cycle() // warm the member list
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("warm Add/Clear cycle: %v allocs/op, want 0", allocs)
	}
}
