// Package chunk is how the module's lists and recycled objects grow, one
// rule for each:
//
//   - Carver, for lists that share chunks: a list that outgrows its
//     capacity takes a block of twice the size, carved from a chunk its
//     owner already holds, and copies itself across in order, so filling a
//     store during a fault storm costs an allocation per chunk, not one per
//     node per doubling.
//   - Reserve, for a single list: its first growth takes the room its owner
//     names, and append doubles it from there.
//   - Pool, for recycled objects: a free list over objects carved from
//     chunks, put back in the order they were made on the owner's Reset.
//     It is the module's one object recycler: the engine's flights, the
//     headers' used-direction tables (route.Tables), boundary's
//     constructions, ident's runs, sub-runs and walkers, and core's
//     watches.
//
// The module keeps 13 Carver and 7 Pool fields outside this package, and
// the root package's TestChunkConsumers fails if either count grows: a new
// owner of chunks replaces an old one or earns its keep in a measurement.
//
// Chunks double: an owner's first chunk is the size it asks for, and each
// later one twice the last, up to 64 KiB. A small owner (an 8x8 mesh, a
// cell that injects a few flights) holds one small chunk, and a large fill
// takes a few doublings, not one chunk of the first size after another.
//
// The rules every owner relies on:
//
//   - Order is kept: a grow copies the list in order, so what a reader sees
//     (routing ties, history digests) is what append would have given.
//   - A carved block is never handed out again. An outgrown block may still
//     be read through a slice taken before the grow (boundary's merge scan
//     iterates a node's records while deposits go on), so it is abandoned,
//     not recycled; the doubling bounds what is abandoned by the lists'
//     capacity.
//   - Nothing is allocated before the first carve, so an owner whose lists
//     never grow (a fault-free simulation) holds no chunk.
//
// An owner that empties its lists for a new trial keeps each list's block,
// so a rerun that grows no list past its old capacity allocates nothing.
package chunk

import "unsafe"

// maxChunkBytes caps a chunk, whatever the size its owner asks for and
// however many times its chunks doubled, so a large mesh's carves do not
// pin megabytes.
const maxChunkBytes = 64 << 10

// Carver carves blocks of T from chunks: the first of the size its owner
// asks for, each later one twice the last, up to 64 KiB. A block larger than
// a quarter of the chunk it would be carved from is allocated on its own,
// leaving the current chunk's tail for the blocks after it, so a chunk
// switch abandons less than a quarter of the chunk that replaces it. The
// zero Carver allocates every block on its own.
type Carver[T any] struct {
	rest []T // the newest chunk's uncarved tail
	next int // elements in the next chunk made
}

// New returns a Carver whose first chunk holds n elements, or as many as fit
// in 64 KiB if fewer. It allocates nothing until the first carve.
func New[T any](n int) Carver[T] {
	return Carver[T]{next: min(n, maxElems[T]())}
}

// maxElems is how many elements of T fit in a chunk.
func maxElems[T any]() int {
	var zero T
	return maxChunkBytes / max(int(unsafe.Sizeof(zero)), 1)
}

// Make returns an empty list with room for n elements: the next n of the
// current chunk, capped there so the list never grows into the block after
// it.
//
//meshvet:noalloc TestCarveAllocFree
func (c *Carver[T]) Make(n int) []T {
	if n > len(c.rest) {
		if 4*n > c.next {
			//meshvet:allow a block too large to carve is its own allocation
			return make([]T, 0, n)
		}
		//meshvet:allow one chunk for many blocks, kept by the lists carved from it
		c.rest = make([]T, c.next)
		c.next = min(2*c.next, maxElems[T]())
	}
	b := c.rest[:0:n]
	c.rest = c.rest[n:]
	return b
}

// Take returns a new zero T carved from the current chunk: one object of
// many that its owner keeps on its own free list, so taking them costs an
// allocation per chunk, not one per object. The chunk lives as long as any
// object carved from it.
//
//meshvet:noalloc TestCarveAllocFree
func (c *Carver[T]) Take() *T {
	return &c.Make(1)[:1][0]
}

// Grow returns s with room for n more elements. With room to spare that is
// s itself; otherwise s's elements are copied, in order, into a carved
// block of twice s's capacity (or of len(s)+n, if that is more), and s's
// old block is abandoned.
//
//meshvet:noalloc TestCarveAllocFree
func (c *Carver[T]) Grow(s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	b := c.Make(max(2*cap(s), len(s)+n))
	b = append(b, s...)
	return b
}

// Reserve returns list, or an empty list with room for n elements if list
// has no capacity yet: a list that n bounds takes its bound on its first
// growth, one allocation, where append would double up to it.
func Reserve[T any](list []T, n int) []T {
	if cap(list) == 0 {
		return make([]T, 0, n)
	}
	return list
}

// Pool recycles objects of T carved from chunks. Each object is the first
// field of a slot that records its serial, the order it was made in, so
// its address is the slot's.
type Pool[T any] struct {
	free  []*T
	first int // the free list's capacity when the first Put makes it
	made  int
	slots Carver[slot[T]]
}

type slot[T any] struct {
	obj    T
	serial int
}

// NewPool returns a Pool whose first chunk holds n objects and whose free
// list starts with room for list of them. It allocates nothing.
func NewPool[T any](n, list int) Pool[T] {
	return Pool[T]{first: list, slots: New[slot[T]](n)}
}

// Get takes the object put last off the free list, as it was put, or else
// carves a zero one and reports it fresh.
//
//meshvet:noalloc TestCarveAllocFree
func (p *Pool[T]) Get() (x *T, fresh bool) {
	if n := len(p.free); n > 0 {
		x, p.free = p.free[n-1], p.free[:n-1]
		return x, false
	}
	s := p.slots.Take()
	s.serial, p.made = p.made, p.made+1
	return &s.obj, true
}

// Put returns objects Get handed out. An empty Put makes no free list, so
// an owner that never recycled anything holds none.
//
//meshvet:noalloc TestCarveAllocFree
func (p *Pool[T]) Put(xs ...*T) {
	if len(xs) > 0 {
		p.free = Reserve(p.free, max(p.first, len(xs)))
		p.free = append(p.free, xs...)
	}
}

// Restack, when every object made is on hand (as after its owner's Reset),
// orders the free list so Get hands them out in the order they were made:
// a rerun of one trial then gets at every Get the object, and the capacity
// it grew, that it got the first time. Otherwise it changes nothing.
//
//meshvet:noalloc TestCarveAllocFree
func (p *Pool[T]) Restack() {
	f := p.free
	if len(f) != p.made {
		return
	}
	// Each swap moves f[i] to its serial's place, counted from the top.
	for i := range f {
		for j := len(f) - 1 - serial(f[i]); j != i; j = len(f) - 1 - serial(f[i]) {
			f[i], f[j] = f[j], f[i]
		}
	}
}

func serial[T any](x *T) int { return (*slot[T])(unsafe.Pointer(x)).serial }
