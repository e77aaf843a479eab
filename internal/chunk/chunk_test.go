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

// TestChunkSizing pins what a carve costs: nothing before the first; chunks
// of the owner's size, then each twice the last, never over 64 KiB, one
// allocation each for every block carved from it; a block over a quarter
// of the chunk it would be carved from on its own (the current tail kept for
// the blocks after it); and one allocation per block from the zero Carver.
func TestChunkSizing(t *testing.T) {
	if c := New[uint64](64); c.rest != nil {
		t.Fatal("New allocated")
	}
	const blocks = 1 << 14 // blocks of 4: past the cap, 8192 elements
	var sizes [32]int
	chunks := 0
	if n := testing.AllocsPerRun(1, func() {
		c := New[uint64](64)
		chunks = 0
		for range blocks {
			fresh := len(c.rest) < 4
			c.Make(4)
			if fresh {
				if chunks < len(sizes) {
					sizes[chunks] = len(c.rest) + 4
				}
				chunks++
			}
		}
	}); int(n) != chunks {
		t.Fatalf("%d blocks of 4: %v allocations, want one for each of the %d chunks", blocks, n, chunks)
	}
	want, seen := 64, sizes[:min(chunks, len(sizes))]
	for i, got := range seen {
		if got != want {
			t.Fatalf("chunk %d holds %d elements, want %d (chunks %v)", i, got, want, seen)
		}
		want = min(2*want, 8<<10)
	}

	c := New[uint64](64)
	for range 3 {
		c.Make(16)
	}
	if big := c.Make(33); cap(big) != 33 || len(c.rest) != 16 {
		t.Fatalf("a 33-block past a 64-element chunk (the next holds 128): cap %d, chunk tail %d; want its own 33 and the tail 16 kept", cap(big), len(c.rest))
	}
	if c.Make(32); len(c.rest) != 96 {
		t.Fatalf("a 32-block, a quarter of the next chunk: tail %d, want it carved from a chunk of 128 (tail 96)", len(c.rest))
	}
	if got := New[uint64](1 << 20).next; got != 8<<10 {
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

// TestCarveAllocFree holds Make, Grow and Take, and a Pool's Get, Put and
// Restack, to allocating nothing while the current chunk has room and the
// free list has been made: carving and recycling are slicing.
func TestCarveAllocFree(t *testing.T) {
	c := New[int16](1 << 12)
	c.Make(1) // the chunk
	pool := NewPool[int16](1<<12, 4)
	x, _ := pool.Get()
	pool.Put(x) // the free list
	var s []int16
	var p *int16
	if n := testing.AllocsPerRun(100, func() {
		b := c.Make(2)
		s = c.Grow(b, 3)
		p = c.Take()
		y, _ := pool.Get()
		z, _ := pool.Get()
		pool.Put(z, y)
		pool.Restack()
	}); n != 0 {
		t.Fatalf("carving from a chunk with room: %v allocations per run, want 0", n)
	}
	_, _ = s, p
}

// TestReserve pins Reserve: a list with no capacity gets room for n, and
// one with capacity is returned as it is.
func TestReserve(t *testing.T) {
	if r := Reserve[int](nil, 5); len(r) != 0 || cap(r) != 5 {
		t.Fatalf("Reserve(nil, 5): %d/%d, want 0/5", len(r), cap(r))
	}
	s := make([]int, 1, 2)
	if r := Reserve(s, 8); unsafe.SliceData(r) != unsafe.SliceData(s) || len(r) != 1 || cap(r) != 2 {
		t.Fatal("Reserve replaced a list that had capacity")
	}
}

// TestPoolRestack holds a Pool to its contract: Get reports fresh exactly
// the objects it carves; with every object on hand, Restack makes Gets
// return them in the order they were made, whatever order they were put
// back in; with one still out, Restack changes nothing.
func TestPoolRestack(t *testing.T) {
	type obj struct{ id int }
	p := NewPool[obj](4, 2) // two chunks, a free list that grows
	var made []*obj
	get := func() *obj {
		o, fresh := p.Get()
		if fresh != (o.id == 0) {
			t.Fatalf("Get of object %d reported fresh %v", o.id, fresh)
		}
		if fresh {
			made = append(made, o)
			o.id = len(made)
		}
		return o
	}
	for range 7 {
		get()
	}
	for _, perm := range [][]int{{3, 0, 6, 1, 5, 2, 4}, {6, 5, 4, 3, 2, 1, 0}, {0, 1, 2, 3, 4, 5, 6}} {
		for _, i := range perm {
			p.Put(made[i])
		}
		p.Restack()
		for i, want := range made {
			if got := get(); got != want {
				t.Fatalf("put in order %v: Get %d after Restack returned object %d, want %d", perm, i, got.id, want.id)
			}
		}
	}

	out, back := get(), made[:7] // the eighth is carved and stays out
	p.Put(back...)
	p.Restack()
	for i := len(back) - 1; i >= 0; i-- {
		if got := get(); got != back[i] {
			t.Fatalf("with one object out, Get returned object %d, want %d: Restack changed the order", got.id, back[i].id)
		}
	}
	if out.id != 8 {
		t.Fatalf("the eighth Get carved object %d, want 8", out.id)
	}
}
