package route

import (
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/rng"
)

// flatLoad is a LoadView with every signal equal — the "contention
// disabled" landscape (zero) or any uniform background.
type flatLoad struct{ v int }

func (l flatLoad) Resident(grid.NodeID) int              { return l.v }
func (l flatLoad) LinkPending(grid.NodeID, grid.Dir) int { return l.v }

// dirLoad biases one direction from one node.
type dirLoad struct {
	from grid.NodeID
	dir  grid.Dir
	v    int
}

func (l dirLoad) Resident(grid.NodeID) int { return 0 }
func (l dirLoad) LinkPending(from grid.NodeID, dir grid.Dir) int {
	if from == l.from && dir == l.dir {
		return l.v
	}
	return 0
}

// TestCongestedEqualsLimitedNoLoadView pins the fallback contract
// decision-for-decision: with Context.Load == nil the congested router is
// Limited, verbatim, over randomized faulty scenarios.
func TestCongestedEqualsLimitedNoLoadView(t *testing.T) {
	r := rng.New(4242)
	for trial := 0; trial < 50; trial++ {
		ctx, m := randomEnv(t, r)
		ctx.Load = nil
		src, dst := randomPair(m, r)
		if src == grid.InvalidNode {
			continue
		}
		lim, cong := NewMessage(src, dst), NewMessage(src, dst)
		for i := 0; i < 4000; i++ {
			dl := Limited{}.Decide(ctx, lim)
			dc := Congested{}.Decide(ctx, cong)
			if dl != dc {
				t.Fatalf("trial %d step %d: limited %+v, congested %+v at node %d",
					trial, i, dl, dc, lim.Cur)
			}
			la := AdvanceGated(ctx, Limited{}, lim, nil)
			AdvanceGated(ctx, Congested{}, cong, nil)
			if !la {
				break
			}
		}
		if lim.Arrived != cong.Arrived || lim.Hops != cong.Hops || lim.Cur != cong.Cur {
			t.Fatalf("trial %d: trajectories diverged: %v vs %v", trial, lim, cong)
		}
	}
}

// TestCongestedEqualsLimitedFlatLoad pins the hysteresis floor: when every
// load signal is equal (contention disabled reads all zeros; any uniform
// landscape behaves the same) no alternative can show the required strict
// advantage, so congested reproduces Limited even with the stall flag forced
// on before every step, which sends each decision down the load-aware path.
func TestCongestedEqualsLimitedFlatLoad(t *testing.T) {
	r := rng.New(777)
	for _, load := range []LoadView{flatLoad{0}, flatLoad{3}} {
		for trial := 0; trial < 25; trial++ {
			ctx, m := randomEnv(t, r)
			ctx.Load = load
			src, dst := randomPair(m, r)
			if src == grid.InvalidNode {
				continue
			}
			rt := Congested{}
			lim, cong := NewMessage(src, dst), NewMessage(src, dst)
			for i := 0; i < 4000; i++ {
				cong.stalled = true
				dl := Limited{}.Decide(ctx, lim)
				dc := rt.Decide(ctx, cong)
				if dl != dc {
					t.Fatalf("trial %d step %d: limited %+v, congested %+v", trial, i, dl, dc)
				}
				la := AdvanceGated(ctx, Limited{}, lim, nil)
				AdvanceGated(ctx, rt, cong, nil)
				if !la {
					break
				}
			}
		}
	}
}

// TestCongestedDeviatesToLighterPreferred pins the tie-break: with two
// preferred directions and the baseline one congested, the router keeps the
// baseline until the message has stalled, then takes the lighter.
func TestCongestedDeviatesToLighterPreferred(t *testing.T) {
	ctx, m := env(t, []int{8, 8}, nil)
	src := m.Shape().Index(grid.Coord{2, 2})
	dst := m.Shape().Index(grid.Coord{5, 5})
	// Baseline (LowestAxis) picks +X; pile load onto that link.
	ctx.Load = dirLoad{from: src, dir: grid.DirPlus(0), v: 5}

	msg := NewMessage(src, dst)
	if d := (Congested{}).Decide(ctx, msg); d.Dir != grid.DirPlus(0) {
		t.Fatalf("stall-gated router deviated without a stall: %+v", d)
	}
	msg.stalled = true
	if d := (Congested{}).Decide(ctx, msg); d.Dir != grid.DirPlus(1) {
		t.Fatalf("stalled router kept the congested link: %+v", d)
	}
}

// TestCongestedMarginHysteresis pins that deviation requires a strict
// advantage of at least the margin of 1: equal loads keep the baseline.
func TestCongestedMarginHysteresis(t *testing.T) {
	ctx, m := env(t, []int{8, 8}, nil)
	src := m.Shape().Index(grid.Coord{2, 2})
	dst := m.Shape().Index(grid.Coord{5, 5})
	msg := NewMessage(src, dst)
	msg.stalled = true
	for _, tc := range []struct {
		load int
		want grid.Dir
	}{
		{0, grid.DirPlus(0)}, // no advantage: keep baseline
		{1, grid.DirPlus(1)}, // advantage 1 >= margin 1: deviate
		{2, grid.DirPlus(1)},
	} {
		ctx.Load = dirLoad{from: src, dir: grid.DirPlus(0), v: tc.load}
		d := Congested{}.Decide(ctx, msg)
		if d.Dir != tc.want {
			t.Fatalf("load %d: picked %v, want %v", tc.load, d.Dir, tc.want)
		}
	}
}

// TestCongestedNeverLeavesTheClass pins the safety property the router
// inherits from Limited: load may reorder directions inside a priority
// class, but never promote a spare over a preferred direction, so
// Algorithm 3's class priorities and termination guarantees carry over.
func TestCongestedNeverLeavesTheClass(t *testing.T) {
	ctx, m := env(t, []int{8, 8}, nil)
	src := m.Shape().Index(grid.Coord{2, 2})
	dst := m.Shape().Index(grid.Coord{5, 2}) // straight +X run: one preferred dir
	// Make the single preferred direction maximally congested.
	ctx.Load = dirLoad{from: src, dir: grid.DirPlus(0), v: 1000}
	msg := NewMessage(src, dst)
	msg.stalled = true
	d := Congested{}.Decide(ctx, msg)
	if d.Dir != grid.DirPlus(0) {
		t.Fatalf("router left the preferred class: %+v", d)
	}
}
