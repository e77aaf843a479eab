package route

import (
	"testing"

	"ndmesh/internal/boundary"
	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
)

// The reference Algorithm 3: step 2 as a probe loop over all 2n directions —
// one Neighbor load, one Status load and one isPreferred per direction, the
// candidates collected in three lists — which is how classify was written
// before the mesh kept open sets. Every router decision must equal it.

type refLists struct {
	preferred, demoted, spares []grid.Dir
	uc, dc                     grid.Coord
}

// isPreferred reports whether dir reduces the Manhattan distance to dc.
func isPreferred(uc, dc grid.Coord, dir grid.Dir) bool {
	a := dir.Axis()
	if dir.Positive() {
		return uc[a] < dc[a]
	}
	return uc[a] > dc[a]
}

// refClassify is the per-direction candidate scan; ok is false when the
// current node is disabled or faulty.
func refClassify(ctx *Context, msg *Message, recs []info.Record) (cl refLists, ok bool) {
	m := ctx.M
	u := msg.Cur
	if m.Status(u).Bad() {
		return cl, false
	}
	shape := m.Shape()
	cl.uc, cl.dc = shape.CoordView(u), shape.CoordView(msg.Dst)
	for dv := 0; dv < shape.NumDirs(); dv++ {
		dir := grid.Dir(dv)
		if msg.used.Has(dir) {
			continue
		}
		next := m.Neighbor(u, dir)
		if next == grid.InvalidNode || m.Status(next) != mesh.Enabled {
			continue
		}
		if isPreferred(cl.uc, cl.dc, dir) {
			demoted := false
			for _, r := range recs {
				demoted = demoted || boundary.Demotes(ctx.Store.Box(r.Block), shape.CoordView(next), cl.dc)
			}
			if demoted {
				cl.demoted = append(cl.demoted, dir)
			} else {
				cl.preferred = append(cl.preferred, dir)
			}
			continue
		}
		if msg.Incoming != grid.InvalidDir && dir == msg.Incoming.Opposite() {
			continue
		}
		cl.spares = append(cl.spares, dir)
	}
	return cl, true
}

func refLowest(dirs []grid.Dir) grid.Dir {
	best := dirs[0]
	for _, d := range dirs[1:] {
		if d < best {
			best = d
		}
	}
	return best
}

func refPickSpare(dirs []grid.Dir, store *info.Store, recs []info.Record, uc grid.Coord) grid.Dir {
	const inf = int(^uint(0) >> 1)
	best, bestRank := dirs[0], inf
	for _, d := range dirs {
		rank := inf
		a := d.Axis()
		for _, r := range recs {
			box := store.Box(r.Block)
			if !box.ContainsOn(a, uc[a]) {
				continue
			}
			run := uc[a] - (box.Lo[a] - 1)
			if d.Positive() {
				run = box.Hi[a] + 1 - uc[a]
			}
			rank = min(rank, run)
		}
		if rank < bestRank || (rank == bestRank && d < best) {
			best, bestRank = d, rank
		}
	}
	if bestRank < inf {
		return best
	}
	return refLowest(dirs)
}

func refLightest(ctx *Context, u grid.NodeID, dirs []grid.Dir, base grid.Dir) grid.Dir {
	baseScore := loadScore(ctx, u, base)
	best, bestScore := base, baseScore
	for _, d := range dirs {
		if d == base {
			continue
		}
		if s := loadScore(ctx, u, d); s < bestScore {
			best, bestScore = d, s
		}
	}
	if best != base && baseScore-bestScore >= margin {
		return best
	}
	return base
}

// refAlgorithm3 decides from the lists; adaptive selects Congested's
// load-aware tie-break inside the winning class.
func refAlgorithm3(ctx *Context, msg *Message, recs []info.Record, adaptive bool) Decision {
	cl, ok := refClassify(ctx, msg, recs)
	var class []grid.Dir
	var base grid.Dir
	switch {
	case !ok:
	case len(cl.preferred) > 0:
		class, base = cl.preferred, refLowest(cl.preferred)
	case len(cl.spares) > 0:
		class, base = cl.spares, refPickSpare(cl.spares, ctx.Store, recs, cl.uc)
	case len(cl.demoted) > 0:
		class, base = cl.demoted, refLowest(cl.demoted)
	}
	if class == nil {
		return backtrackOrFail(msg)
	}
	if adaptive {
		base = refLightest(ctx, msg.Cur, class, base)
	}
	return Decision{Move: true, Dir: base}
}

// refDistances is the oracle's distance field the long way, rebuilt per
// decision: a BFS from dst over every existing neighbor, filtered by Status.
// It shares nothing with Oracle's table, so a wrong or stale field fails the
// comparison.
func refDistances(m *mesh.Mesh, dst grid.NodeID) []int32 {
	dist := make([]int32, m.NumNodes())
	for i := range dist {
		dist[i] = unreachableDist
	}
	var queue []grid.NodeID
	if m.Status(dst) == mesh.Enabled {
		dist[dst] = 0
		queue = append(queue, dst)
	}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		m.EachNeighbor(cur, func(nb grid.NodeID, _ grid.Dir) {
			if dist[nb] == unreachableDist && m.Status(nb) == mesh.Enabled {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		})
	}
	return dist
}

// referenceDecision is what router r must decide for msg, computed by the
// per-direction probe loop.
func referenceDecision(r Router, ctx *Context, msg *Message) Decision {
	m := ctx.M
	probe := func(dir grid.Dir) grid.NodeID { // one-hop sensing, the long way
		if nb := m.Neighbor(msg.Cur, dir); nb != grid.InvalidNode && m.Status(nb) == mesh.Enabled {
			return nb
		}
		return grid.InvalidNode
	}
	switch r.(type) {
	case Limited:
		return refAlgorithm3(ctx, msg, recordsAt(ctx, msg.Cur), false)
	case Blind:
		return refAlgorithm3(ctx, msg, nil, false)
	case Congested:
		adaptive := ctx.Load != nil && msg.Stalled()
		return refAlgorithm3(ctx, msg, recordsAt(ctx, msg.Cur), adaptive)
	case DOR:
		if m.Status(msg.Cur).Bad() {
			return Decision{Fail: true}
		}
		for _, dir := range m.Shape().PreferredDirs(msg.Cur, msg.Dst, nil) {
			if probe(dir) == grid.InvalidNode {
				return Decision{Fail: true}
			}
			return Decision{Move: true, Dir: dir}
		}
		return Decision{Fail: true}
	case *Oracle:
		if m.Status(msg.Cur).Bad() {
			return backtrackOrFail(msg)
		}
		dist := refDistances(m, msg.Dst)
		best, bestDist := grid.InvalidDir, dist[msg.Cur]
		for dv := 0; dv < m.Shape().NumDirs(); dv++ {
			if nb := probe(grid.Dir(dv)); nb != grid.InvalidNode && dist[nb] != unreachableDist && dist[nb] < bestDist {
				best, bestDist = grid.Dir(dv), dist[nb]
			}
		}
		if best == grid.InvalidDir {
			return Decision{Fail: true}
		}
		return Decision{Move: true, Dir: best}
	}
	panic("no reference for router " + r.Name())
}

// TestDecisionsEqualReference holds the bit-parallel classification to the
// per-direction one exhaustively: every (current node, destination, used set,
// incoming direction) on faulted 4x4 and 3x3x3 meshes with their records
// deposited, for every router — the adaptive one both following Limited and
// breaking ties on a synthetic load landscape.
func TestDecisionsEqualReference(t *testing.T) {
	scenarios := []struct {
		dims   []int
		faults []grid.Coord
	}{
		{[]int{4, 4}, []grid.Coord{{1, 2}}},
		{[]int{4, 4}, []grid.Coord{{1, 1}, {2, 2}}}, // grows to a 2x2 block with disabled nodes
		{[]int{3, 3, 3}, []grid.Coord{{1, 1, 1}}},
	}
	routers := fuzzRouters()
	decisions, withDemoted, withSpareOnly := 0, 0, 0
	for _, sc := range scenarios {
		ctx, m := env(t, sc.dims, sc.faults)
		ctx.Load = fuzzLoad{salt: uint64(len(sc.faults))}
		nd := m.Shape().NumDirs()
		for cur := grid.NodeID(0); int(cur) < m.NumNodes(); cur++ {
			for dst := grid.NodeID(0); int(dst) < m.NumNodes(); dst++ {
				if cur == dst {
					continue
				}
				for used := grid.DirSet(0); used < 1<<uint(nd); used++ {
					for in := grid.InvalidDir; int(in) < nd; in++ {
						msg := Message{Src: cur, Dst: dst, Cur: cur, Incoming: in, slot: -1, used: used}
						if in != grid.InvalidDir {
							msg.path = []hop{{}} // it has moved: a dead end backtracks, not fails
						}
						if cl, ok := refClassify(ctx, &msg, recordsAt(ctx, cur)); ok {
							if len(cl.demoted) > 0 {
								withDemoted++
							}
							if len(cl.preferred) == 0 && len(cl.spares) > 0 {
								withSpareOnly++
							}
						}
						for _, stalled := range []bool{false, true} {
							msg.stalled = stalled
							for _, r := range routers {
								got := r.Decide(ctx, &msg)
								if want := referenceDecision(r, ctx, &msg); got != want {
									t.Fatalf("%v %s: cur %d dst %d used %b incoming %v stalled %v: decided %+v, reference %+v",
										m.Shape(), r.Name(), cur, dst, used, in, stalled, got, want)
								}
								decisions++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d decisions; %d headers with a demoted candidate, %d deciding among spares", decisions, withDemoted, withSpareOnly)
	if withDemoted == 0 || withSpareOnly == 0 {
		t.Fatalf("scenarios reach %d demotions and %d spare picks: both classes must be exercised", withDemoted, withSpareOnly)
	}
}
