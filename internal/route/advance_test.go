package route

import (
	"fmt"
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/meshtest"
)

// alwaysBacktrack is the adversarial router for the empty-path gating
// regression: it demands a backtrack regardless of header state, which is
// the only way to reach Link's and Commit's Backtrack case with PathLen()==0
// (Limited/Blind funnel that state through backtrackOrFail into Fail, and
// the fuzz harness never observed the branch either).
type alwaysBacktrack struct{}

func (alwaysBacktrack) Name() string                       { return "always-backtrack" }
func (alwaysBacktrack) Decide(*Context, *Message) Decision { return Decision{Backtrack: true} }

// countingGate records every arbitration query and grants them all.
type countingGate struct {
	calls []string
}

func (g *countingGate) gate(from grid.NodeID, dir grid.Dir) bool {
	g.calls = append(g.calls, fmt.Sprintf("%d/%d", from, dir))
	return true
}

// TestBacktrackEmptyPathConsultsNoGate pins the latent gating question on
// the backtrack path: a Backtrack decision with an empty path stack is the
// terminal unreachable transition — no link is crossed — so it must
// neither consume link-service budget nor record a stall, under contention
// or not. (For the repository's own routers the state is unreachable:
// backtrackOrFail turns an empty stack into Fail. The stub pins the
// contract for any router.)
func TestBacktrackEmptyPathConsultsNoGate(t *testing.T) {
	m, err := meshtest.NewUniform(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	shape := m.Shape()
	ctx := &Context{M: m}
	msg := NewMessage(shape.Index(grid.Coord{2, 2}), shape.Index(grid.Coord{5, 5}))
	var g countingGate
	still := AdvanceGated(ctx, alwaysBacktrack{}, msg, g.gate)
	if still {
		t.Fatal("message still in flight after empty-path backtrack")
	}
	if !msg.Unreachable {
		t.Fatalf("empty-path backtrack not terminal: %v", msg)
	}
	if msg.Hops != 0 || msg.Backtracks != 0 {
		t.Fatalf("empty-path backtrack moved: hops=%d backtracks=%d", msg.Hops, msg.Backtracks)
	}
	if msg.Waits != 0 || msg.Stalled() {
		t.Fatalf("empty-path backtrack recorded a stall: waits=%d stalled=%v", msg.Waits, msg.Stalled())
	}
	if len(g.calls) != 0 {
		t.Fatalf("gate consulted %d times (%v); the terminal case crosses no link", len(g.calls), g.calls)
	}
}

// TestSourceDeadEndUnderContention is the real-router companion: a source
// whose every neighbor is faulty is a dead end the limited router must
// declare unreachable in one step without touching the arbitration state
// (no link budget, no pending counter) — the regression a gated empty-path
// backtrack would have broken.
func TestSourceDeadEndUnderContention(t *testing.T) {
	m, err := meshtest.NewUniform(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	shape := m.Shape()
	src := grid.Coord{3, 3}
	for _, nb := range [][2]int{{2, 3}, {4, 3}, {3, 2}, {3, 4}} {
		m.Fail(m.Shape().Index(grid.Coord{nb[0], nb[1]}))
	}
	ctx := &Context{M: m}
	msg := NewMessage(shape.Index(src), shape.Index(grid.Coord{6, 6}))
	var g countingGate
	if AdvanceGated(ctx, Limited{}, msg, g.gate) {
		t.Fatal("dead-end message still in flight")
	}
	if !msg.Unreachable || msg.Steps != 1 {
		t.Fatalf("dead-end not unreachable in one step: %v steps=%d", msg, msg.Steps)
	}
	if len(g.calls) != 0 {
		t.Fatalf("gate consulted at a dead end: %v", g.calls)
	}
}

// TestStallKeepsDecision pins when a stalled message reuses the decision it
// stalled on. Every router routes (1,1) -> (5,5) on a fault-free 8x8 with
// a record at the source, is denied its first traversal, and then meets
// one change: the load-oblivious routers keep their decision exactly when
// the mesh version and the store version are both unchanged and the message
// did not move; congested never keeps one. Whatever the header
// keeps, the decision the next step commits must equal a fresh Decide.
func TestStallKeepsDecision(t *testing.T) {
	cases := []struct {
		name   string
		change func(ctx *Context, msg *Message, block info.BlockID, grant func())
		keeps  bool
	}{
		{"nothing", func(*Context, *Message, info.BlockID, func()) {}, true},
		{"record at Cur refreshed", func(ctx *Context, msg *Message, b info.BlockID, _ func()) {
			ctx.Store.Add(msg.Cur, info.Record{Block: b, Epoch: 9}) // a newer epoch, no new record
		}, true},
		{"neighbour fails", func(ctx *Context, msg *Message, _ info.BlockID, _ func()) {
			ctx.M.Fail(ctx.M.Neighbor(msg.Cur, grid.DirPlus(0)))
		}, false},
		{"record added at Cur", func(ctx *Context, msg *Message, _ info.BlockID, _ func()) {
			box := grid.Box{Lo: grid.Coord{3, 2}, Hi: grid.Coord{3, 3}}
			ctx.Store.Add(msg.Cur, info.Record{Block: ctx.Store.Intern(box), Epoch: 1})
		}, false},
		{"record removed from Cur", func(ctx *Context, msg *Message, b info.BlockID, _ func()) {
			ctx.Store.Remove(msg.Cur, b, 100)
		}, false},
		{"message moves", func(_ *Context, _ *Message, _ info.BlockID, grant func()) {
			grant()
		}, false},
	}
	routers := []Router{Limited{}, Blind{}, DOR{}, &Oracle{}, Congested{}}
	for _, tc := range cases {
		for _, rt := range routers {
			ctx, m := env(t, []int{8, 8}, nil)
			ctx.Load = flatLoad{}
			shape := m.Shape()
			src := shape.Index(grid.Coord{1, 1})
			b := ctx.Store.Intern(grid.Box{Lo: grid.Coord{6, 3}, Hi: grid.Coord{6, 4}})
			ctx.Store.Add(src, info.Record{Block: b, Epoch: 1})
			msg := NewMessage(src, shape.Index(grid.Coord{5, 5}))
			deny := true
			gate := func(grid.NodeID, grid.Dir) bool { return !deny }
			AdvanceGated(ctx, rt, msg, gate)
			if !msg.Stalled() {
				t.Fatalf("%s/%s: first step not denied", tc.name, rt.Name())
			}
			tc.change(ctx, msg, b, func() {
				deny = false
				AdvanceGated(ctx, rt, msg, gate)
				deny = true
			})
			want := tc.keeps && rt.Name() != "congested"
			if got := msg.stalled && msg.key == StateKey(ctx) && LoadOblivious(rt); got != want {
				t.Errorf("%s/%s: keeps = %v, want %v", tc.name, rt.Name(), got, want)
			}
			fresh := rt.Decide(ctx, msg)
			AdvanceGated(ctx, rt, msg, gate)
			if msg.kept != fresh {
				t.Errorf("%s/%s: committed %+v, a fresh decision is %+v", tc.name, rt.Name(), msg.kept, fresh)
			}
		}
	}
}
