package ndmesh

// This file pins every figure and the notation table of the paper to an
// executable check through the public API (experiments E1-E8 of the index
// in experiments.go's header).
// The internal packages carry finer-grained versions; these tests are the
// top-level index entries.

import (
	"strings"
	"testing"
)

// fig1Sim builds the paper's running example: faults (3,5,4), (4,5,4),
// (5,5,3), (3,6,3) in a 10x10x10 mesh, stabilized.
func fig1Sim(t *testing.T) *Simulation {
	t.Helper()
	sim, err := NewSimulation(Config{Dims: []int{10, 10, 10}, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Coord{C(3, 5, 4), C(4, 5, 4), C(5, 5, 3), C(3, 6, 3)} {
		if err := sim.FailNow(c); err != nil {
			t.Fatal(err)
		}
	}
	sim.Stabilize()
	return sim
}

// TestFigure1 (E1): the faulty block of Figure 1(a) forms exactly.
func TestFigure1(t *testing.T) {
	sim := fig1Sim(t)
	blocks := sim.Blocks()
	if len(blocks) != 1 {
		t.Fatalf("blocks = %v", blocks)
	}
	if got := blocks[0].String(); got != "[3:5, 5:6, 3:4]" {
		t.Fatalf("block = %s, want [3:5, 5:6, 3:4]", got)
	}
}

// TestFigure2 (E2): the 3-level corner example of Figure 2 — (6,4,5) with
// edge neighbors (5,4,5), (6,5,5), (6,4,4) — holds in the stabilized frame
// announcements (checked in internal/frame; here we check the corner holds
// the block's record, which only corners/frame/boundary nodes do).
func TestFigure2(t *testing.T) {
	sim := fig1Sim(t)
	id, err := sim.NodeAt(C(6, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	recs := sim.model.Store.At(id)
	if len(recs) == 0 {
		t.Fatal("3-level corner holds no block record")
	}
	if got := sim.model.Store.Box(recs[0].Block).String(); got != "[3:5, 5:6, 3:4]" {
		t.Fatalf("corner record = %s", got)
	}
}

// TestFigure3 (E3): boundary placement — the walls of Figure 3 carry the
// block record; nodes inside the dangerous area do not.
func TestFigure3(t *testing.T) {
	sim := fig1Sim(t)
	// (4,2,3): inside the -Y shadow (x,z within span, y below): no record.
	inShadow, _ := sim.NodeAt(C(4, 2, 3))
	if len(sim.model.Store.At(inShadow)) != 0 {
		t.Error("shadow interior should hold no record")
	}
	// (2,2,3): on the x=lo-1 wall below the block: record present.
	onWall, _ := sim.NodeAt(C(2, 2, 3))
	if len(sim.model.Store.At(onWall)) == 0 {
		t.Error("wall node should hold the record")
	}
	// (2,9,4): the wall continues on the +Y side up to the border.
	above, _ := sim.NodeAt(C(2, 9, 4))
	if len(sim.model.Store.At(above)) == 0 {
		t.Error("+Y wall node should hold the record")
	}
}

// TestFigure4 (E4): the recovery of (5,5,3) shrinks the block to
// [3:4, 5:6, 3:4] and the information follows.
func TestFigure4(t *testing.T) {
	sim := fig1Sim(t)
	if err := sim.RecoverNow(C(5, 5, 3)); err != nil {
		t.Fatal(err)
	}
	sim.Stabilize()
	blocks := sim.Blocks()
	if len(blocks) != 1 || blocks[0].String() != "[3:4, 5:6, 3:4]" {
		t.Fatalf("blocks after recovery = %v", blocks)
	}
	// The old block's boundary on the x=6 side must be gone: (6,2,3) was
	// a wall node of [3:5,...] but is not on [3:4,...]'s placement.
	stale, _ := sim.NodeAt(C(6, 2, 3))
	if len(sim.model.Store.At(stale)) != 0 {
		t.Error("stale boundary record survived the recovery")
	}
}

// TestFigure5And6 (E5, E6): identification and its propagation — after
// stabilization every frame node of the block holds the identified record.
func TestFigure5And6(t *testing.T) {
	sim := fig1Sim(t)
	// All 8 corners of the block (Figure 6's endpoints) hold the record.
	for _, c := range []Coord{
		C(2, 4, 2), C(6, 4, 2), C(2, 7, 2), C(6, 7, 2),
		C(2, 4, 5), C(6, 4, 5), C(2, 7, 5), C(6, 7, 5),
	} {
		id, err := sim.NodeAt(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(sim.model.Store.At(id)) == 0 {
			t.Errorf("corner %v lacks the identified record", c)
		}
	}
}

// TestFigure7 (E7): the step anatomy — a message advances one hop per step
// while the information advances λ hops per step. With λ high enough, a
// block forming ahead of a message is fully constructed before arrival.
func TestFigure7(t *testing.T) {
	sim, err := NewSimulation(Config{Dims: []int{16, 16}, Lambda: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Coord{C(6, 7), C(7, 8), C(8, 7), C(9, 8)} {
		if err := sim.ScheduleFault(2, c); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sim.Route(C(7, 2), C(7, 13), "limited")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Arrived {
		t.Fatalf("did not arrive: %+v", res)
	}
	if res.Backtracks != 0 {
		t.Errorf("with λ=8 the information must outrun the message: %+v", res)
	}
	if res.Steps != res.Hops {
		t.Errorf("one hop per step violated: %+v", res)
	}
}

// TestTable1 (E8): every quantity of the notation table is measured.
func TestTable1(t *testing.T) {
	sim, err := NewSimulation(Config{Dims: []int{12, 12}, Lambda: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.GenerateFaults(FaultPlan{Faults: 3, Interval: 40, Start: 2, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	sim.Drain()
	evs := sim.Events()
	if len(evs) != 3 {
		t.Fatalf("F = %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Index != i+1 {
			t.Errorf("event index %d, want %d", ev.Index, i+1) // f_i
		}
		if ev.Step != 2+40*i {
			t.Errorf("t_%d = %d, want %d", i+1, ev.Step, 2+40*i) // t_i, d_i
		}
		if ev.BRounds == 0 || ev.CRounds == 0 {
			t.Errorf("b_%d/c_%d missing: %+v", i+1, i+1, ev)
		}
		if ev.BSteps != (ev.BRounds+1)/2 {
			t.Errorf("λ division wrong: %+v", ev) // λ
		}
		if ev.EMaxAfter != 1 {
			t.Errorf("e_max = %d, want 1 (scattered singletons)", ev.EMaxAfter)
		}
	}
}

// TestRenderIncludesLegendGlyphs sanity-checks the public Render output.
func TestRenderIncludesLegendGlyphs(t *testing.T) {
	sim := fig1Sim(t)
	out := sim.Render(C(0, 0, 4))
	if !strings.Contains(out, "X") || !strings.Contains(out, "o") {
		t.Fatalf("render lacks expected glyphs:\n%s", out)
	}
}
