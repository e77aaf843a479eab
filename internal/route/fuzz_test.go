package route

import (
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
)

// fuzzLoad is a deterministic synthetic LoadView: load values are a pure
// hash of (salt, node/link), so the congested router sees arbitrary but
// stable congestion landscapes — including large and lopsided ones — that
// no engine run would produce, which is exactly what the fuzz target wants.
type fuzzLoad struct{ salt uint64 }

func (l fuzzLoad) mix(a, b uint64) int {
	x := l.salt ^ a*0x9E3779B97F4A7C15 ^ b*0xBF58476D1CE4E5B9
	x ^= x >> 29
	x *= 0x94D049BB133111EB
	x ^= x >> 32
	return int(x % 256)
}

func (l fuzzLoad) Resident(id grid.NodeID) int { return l.mix(uint64(id), 1) }
func (l fuzzLoad) LinkPending(from grid.NodeID, dir grid.Dir) int {
	return l.mix(uint64(from), 40+uint64(dir)) % 16
}

// fuzzRouters are the routers under fuzz: every decision they emit must be
// legal regardless of mesh shape, fault placement or load landscape. The
// seeded corpus names them by index, so Limited and Congested stay 0 and 1.
func fuzzRouters() []Router {
	return []Router{
		Limited{},
		Congested{},
		Blind{},
		DOR{},
		&Oracle{},
	}
}

// FuzzRouterDecision drives one full routing episode on a random mesh with
// random stabilized faults, a random synthetic load landscape and (when
// gated) a pseudo-random contention gate, validating every decision before
// it is applied:
//
//   - the decision must equal the reference per-direction Algorithm 3
//     (reference_test.go): same class, same tie-break, same direction;
//   - a Move decision must name an on-mesh direction not yet used at the
//     current node (illegal directions and used-direction revisits are the
//     two corruption modes of Algorithm 3's header discipline);
//   - a Backtrack decision requires a non-empty path stack;
//   - after every advance the header's used-direction table must agree, at
//     every node of the mesh, with a shadow map[NodeID]DirSet maintained
//     the way the header used to (one Add per forward move), and the set
//     cached for the current node with the table;
//   - the decision a step commits must equal the fresh decision, also when
//     a stalled message keeps the one it stalled on; after a gate denial
//     the episode sometimes fails a neighbor of the current node, or adds
//     or removes a record there, before the next step;
//   - no decision may panic;
//   - unless the episode failed a node, a message must never end Lost
//     (Lost is reserved for dynamic failures under the path).
//
// The same router value then routes a second message to a new destination,
// held to the same checks: Oracle's table must serve it as a fresh one would.
//
// `go test` runs the seeded corpus below on every CI run; `go test
// -fuzz=FuzzRouterDecision ./internal/route` explores from there.
func FuzzRouterDecision(f *testing.F) {
	// Seven indexes per seed: every router, then Limited and Congested
	// again (the index wraps) with the gating flipped.
	for _, seed := range []uint64{1, 7, 42, 1234, 99999} {
		for routerIdx := uint8(0); routerIdx < 7; routerIdx++ {
			f.Add(seed, seed*3+11, routerIdx, routerIdx%2 == 0)
		}
	}
	// Gated runs of the congested router, whose stall-triggered
	// adaptivity a stalled message must not skip, and of Limited, whose
	// stalls the episode follows with record and status changes.
	for seed := uint64(100); seed < 130; seed++ {
		f.Add(seed, seed*5+3, uint8(seed%2), true)
	}
	// A Limited stall after which a copied record changes the decision: a
	// stalled message that ignored the store's version would keep it.
	f.Add(uint64(1182), uint64(3713), uint8(0), true)
	// Episodes whose header strays, by a spare move or a backtrack, so the
	// switch from a bare path stack to a used-direction table meets the
	// shadow map: 13 of the seeds above and below cross it.
	for _, s := range []struct {
		seed   uint64
		router uint8
	}{{225, 0}, {285, 0}, {266, 1}, {351, 1}, {391, 1}, {237, 2}, {322, 2}, {362, 2}} {
		f.Add(s.seed, s.seed*3+1, s.router, s.seed%3 == 0)
	}
	f.Fuzz(func(t *testing.T, seed, loadSalt uint64, routerIdx uint8, gated bool) {
		r := rng.New(seed)
		// Random mixed-radix shape: 1-3 dimensions, radices 3-6 (interior
		// nodes exist, node count stays small enough for CI).
		dims := make([]int, 1+r.Intn(3))
		for i := range dims {
			dims[i] = 3 + r.Intn(4)
		}
		shape := meshtest.MustShape(dims...)
		// Random interior faults (the paper's model keeps the outermost
		// surface fault-free).
		var faults []grid.Coord
		for i := r.Intn(1 + shape.NumNodes()/8); i > 0; i-- {
			c := make(grid.Coord, len(dims))
			for a, k := range dims {
				c[a] = 1 + r.Intn(k-2)
			}
			faults = append(faults, c)
		}
		ctx, m := env(t, dims, faults)
		ctx.Load = fuzzLoad{salt: loadSalt}
		r.Bool(0.25) // discarded: keeps the seeded episodes' draw order
		src, dst := randomPair(m, r)
		if src == grid.InvalidNode {
			t.Skip("no enabled pair")
		}
		rt := fuzzRouters()[int(routerIdx)%len(fuzzRouters())]
		var gate Gate
		if gated {
			// Deterministic pseudo-random gate: denial exercises the stall
			// flag and the congested router's adaptive branch.
			step := 0
			gate = func(from grid.NodeID, dir grid.Dir) bool {
				step++
				return (uint64(from)*31+uint64(dir)*7+uint64(step)*13+seed)%4 != 0
			}
		}

		episode(t, ctx, rt, gate, NewMessage(src, dst), r)
		if dst2 := grid.NodeID(r.Intn(shape.NumNodes())); dst2 != dst && m.Status(dst2) == mesh.Enabled {
			episode(t, ctx, rt, gate, NewMessage(src, dst2), r)
		}
	})
}

// episode routes msg to termination, validating every decision as
// FuzzRouterDecision lists; r draws the changes made after a stall.
func episode(t *testing.T, ctx *Context, rt Router, gate Gate, msg *Message, r *rng.Source) {
	t.Helper()
	m := ctx.M
	shape := m.Shape()
	shadow := map[grid.NodeID]grid.DirSet{}
	failed := false
	budget := 16*shape.Diameter() + 4*shape.NumNodes() + 64
	for i := 0; i < budget && !msg.Done(); i++ {
		var d Decision
		if msg.Cur != msg.Dst {
			d = rt.Decide(ctx, msg)
			if want := referenceDecision(rt, ctx, msg); d != want {
				t.Fatalf("%s: at node %d (used %b, incoming %v): decided %+v, reference %+v", rt.Name(), msg.Cur, msg.used, msg.Incoming, d, want)
			}
			switch {
			case d.Move:
				if d.Dir < 0 || int(d.Dir) >= shape.NumDirs() {
					t.Fatalf("%s: direction %d out of range at node %d", rt.Name(), d.Dir, msg.Cur)
				}
				if m.Neighbor(msg.Cur, d.Dir) == grid.InvalidNode {
					t.Fatalf("%s: off-mesh direction %v at node %d", rt.Name(), d.Dir, msg.Cur)
				}
				if msg.Used(shape, msg.Cur).Has(d.Dir) {
					t.Fatalf("%s: revisited used direction %v at node %d", rt.Name(), d.Dir, msg.Cur)
				}
			case d.Backtrack:
				if msg.PathLen() == 0 {
					t.Fatalf("%s: backtrack with empty path at node %d", rt.Name(), msg.Cur)
				}
			}
		}
		before, depth := msg.Cur, msg.PathLen()
		AdvanceGated(ctx, rt, msg, gate)
		if before != msg.Dst && msg.kept != d {
			t.Fatalf("%s: step %d at node %d: committed %+v, a fresh decision is %+v", rt.Name(), i, before, msg.kept, d)
		}
		if msg.PathLen() == depth+1 { // a committed forward move
			shadow[before] = shadow[before].Add(d.Dir)
		}
		if msg.Stalled() && r.Bool(0.5) {
			failed = stallChange(ctx, msg, r) || failed
		}
		for id := grid.NodeID(0); int(id) < shape.NumNodes(); id++ {
			if got := msg.Used(shape, id); got != shadow[id] {
				t.Fatalf("%s: step %d: Used(%d) = %b, shadow map says %b", rt.Name(), i, id, got, shadow[id])
			}
		}
		if msg.used != shadow[msg.Cur] {
			t.Fatalf("%s: step %d: cached set at node %d = %b, shadow map says %b", rt.Name(), i, msg.Cur, msg.used, shadow[msg.Cur])
		}
	}
	if msg.Lost && !failed {
		t.Fatalf("%s: message lost under static faults: %v", rt.Name(), msg)
	}
}

// stallChange makes one random change a stalled message's next decision
// may depend on — a neighbor of the current node fails, a record held by a
// random node is copied there, or its first record is removed — and
// reports whether a node failed.
func stallChange(ctx *Context, msg *Message, r *rng.Source) bool {
	m, u := ctx.M, msg.Cur
	switch r.Intn(3) {
	case 0:
		if nb := m.Neighbor(u, grid.Dir(r.Intn(m.Shape().NumDirs()))); nb != grid.InvalidNode && nb != msg.Dst {
			m.Fail(nb)
			return true
		}
	case 1:
		if recs := ctx.Store.At(grid.NodeID(r.Intn(m.NumNodes()))); len(recs) > 0 {
			ctx.Store.Add(u, recs[0])
		}
	case 2:
		if recs := ctx.Store.At(u); len(recs) > 0 {
			ctx.Store.Remove(u, recs[0].Block, ^uint32(0))
		}
	}
	return false
}
