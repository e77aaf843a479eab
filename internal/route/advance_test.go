package route

import (
	"fmt"
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
)

// alwaysBacktrack is the adversarial router for the empty-path gating
// regression: it demands a backtrack regardless of header state, which is
// the only way to reach commitDecision's Backtrack case with PathLen()==0
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
	m, err := mesh.NewUniform(2, 6)
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
	m, err := mesh.NewUniform(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	shape := m.Shape()
	src := grid.Coord{3, 3}
	for _, nb := range [][2]int{{2, 3}, {4, 3}, {3, 2}, {3, 4}} {
		m.FailAt(grid.Coord{nb[0], nb[1]})
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
