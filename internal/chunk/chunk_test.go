package chunk

import (
	"math/bits"
	"slices"
	"testing"
	"unsafe"
)

// TestGrowKeepsOrderAndOldBlocks grows many lists side by side and holds
// each to the plain append of the same values, in order, and every block a
// list outgrew to what it held when it was outgrown: no later carve may
// hand it out again. List i takes every 2^(i+1)-th value, so a list often
// needs a block of exactly the size another has just outgrown.
func TestGrowKeepsOrderAndOldBlocks(t *testing.T) {
	c := New[int32](64)
	lists := make([][]int32, 6)
	want := make([][]int32, len(lists))
	type old struct {
		block []int32
		held  []int32
	}
	var outgrown []old
	for v := int32(1); v < 400; v++ {
		i := bits.TrailingZeros32(uint32(v)) % len(lists)
		if len(lists[i]) == cap(lists[i]) && len(lists[i]) > 0 {
			outgrown = append(outgrown, old{lists[i], slices.Clone(lists[i])})
		}
		lists[i] = c.Grow(lists[i], 1)
		lists[i] = append(lists[i], v)
		want[i] = append(want[i], v)
		for j := range lists {
			if !slices.Equal(lists[j], want[j]) {
				t.Fatalf("after %d: list %d = %v, want %v", v, j, lists[j], want[j])
			}
		}
		for _, o := range outgrown {
			if !slices.Equal(o.block, o.held) {
				t.Fatalf("after %d: an outgrown block changed: %v, held %v", v, o.block, o.held)
			}
		}
	}
}

// TestGrowDoubles pins the block sizes: a full list moves to twice its
// capacity, or to what it needs if that is more, and a list with room is
// returned as it is.
func TestGrowDoubles(t *testing.T) {
	c := New[byte](1 << 10)
	s := c.Grow(nil, 3)
	if len(s) != 0 || cap(s) != 3 {
		t.Fatalf("Grow(nil, 3): %d/%d, want 0/3", len(s), cap(s))
	}
	s = append(s, 1, 2)
	if g := c.Grow(s, 1); unsafe.SliceData(g) != unsafe.SliceData(s) || cap(g) != 3 {
		t.Fatal("Grow moved a list that had room")
	}
	s = append(s, 3)
	if s = c.Grow(s, 1); cap(s) != 6 || !slices.Equal(s, []byte{1, 2, 3}) {
		t.Fatalf("Grow of a full list: %v cap %d, want [1 2 3] cap 6", s, cap(s))
	}
	if s = c.Grow(s, 20); cap(s) != 23 {
		t.Fatalf("Grow past twice: cap %d, want 23", cap(s))
	}
}

// TestChunkSizing pins what a carve costs: nothing before the first, one
// chunk for every block that fits in it, a block over a quarter of a chunk
// that does not fit on its own (the tail kept for the blocks after it), and
// a chunk never over 64 KiB whatever the owner asks for.
func TestChunkSizing(t *testing.T) {
	c := New[uint64](64)
	if c.rest != nil {
		t.Fatal("New allocated")
	}
	if n := testing.AllocsPerRun(1, func() {
		for range 16 {
			c.Make(4)
		}
	}); n != 1 {
		t.Fatalf("16 blocks of 4 from 64-element chunks: %v allocations, want 1", n)
	}
	if len(c.rest) != 0 {
		t.Fatalf("16 blocks of 4 left %d of a 64-element chunk", len(c.rest))
	}
	for range 3 {
		c.Make(16)
	}
	big := c.Make(17)
	if cap(big) != 17 || len(c.rest) != 16 {
		t.Fatalf("a 17-block past the chunk: cap %d, chunk tail %d; want its own 17 and the tail 16 kept", cap(big), len(c.rest))
	}
	if got := New[uint64](1 << 20).size; got != 8<<10 {
		t.Fatalf("a million 8-byte elements asked for: chunk of %d, want 8192 (64 KiB)", got)
	}
	var zero Carver[int]
	if n := testing.AllocsPerRun(10, func() { zero.Make(1) }); n != 1 {
		t.Fatalf("the zero Carver: %v allocations per block, want 1", n)
	}
}

// TestTake pins what Take hands out: a zero object, never one handed out
// before, and one allocation for every chunk of them.
func TestTake(t *testing.T) {
	type obj struct {
		id   int
		next *obj
	}
	c := New[obj](8)
	var taken [9]*obj
	if n := testing.AllocsPerRun(1, func() {
		for i := range 8 {
			taken[i] = c.Take()
		}
	}); n != 1 {
		t.Fatalf("8 objects from 8-object chunks: %v allocations, want 1", n)
	}
	taken[8] = c.Take()
	for i, o := range taken {
		if *o != (obj{}) {
			t.Fatalf("take %d is not zero: %+v", i, *o)
		}
		o.id, o.next = i+1, o
	}
	for i, o := range taken {
		if o.id != i+1 || o.next != o {
			t.Fatalf("take %d was handed out again: %+v", i, *o)
		}
	}
}

// TestCarveAllocFree holds Make, Grow and Take to allocating nothing while the
// current chunk has room: carving is slicing.
func TestCarveAllocFree(t *testing.T) {
	c := New[int16](1 << 12)
	c.Make(1) // the chunk
	var s []int16
	var p *int16
	if n := testing.AllocsPerRun(100, func() {
		b := c.Make(2)
		s = c.Grow(b, 3)
		p = c.Take()
	}); n != 0 {
		t.Fatalf("carving from a chunk with room: %v allocations per run, want 0", n)
	}
	_, _ = s, p
}
