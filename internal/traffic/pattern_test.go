package traffic

import (
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
)

// asymmetric radices exercise the mixed-radix generalizations: 4x6x3 has a
// power-of-two axis, a non-power-of-two even axis and an odd axis.
var testShapes = [][]int{{4, 6, 3}, {8, 8}, {5, 5, 5}, {2, 2}, {16, 3}}

// TestPatternsProduceValidEndpoints is the property test of the issue:
// every pattern, on every shape (including asymmetric radices), produces
// an in-shape destination different from the source, for every source.
func TestPatternsProduceValidEndpoints(t *testing.T) {
	for _, dims := range testShapes {
		shape := meshtest.MustShape(dims...)
		for _, name := range PatternNames() {
			pat, err := ByName(shape, name)
			if err != nil {
				t.Fatalf("%v/%s: %v", dims, name, err)
			}
			r := rng.New(7)
			for src := 0; src < shape.NumNodes(); src++ {
				for rep := 0; rep < 8; rep++ {
					dst := pat.Dest(grid.NodeID(src), r)
					if dst < 0 || int(dst) >= shape.NumNodes() {
						t.Fatalf("%v/%s: src %d -> out-of-shape dst %d", dims, name, src, dst)
					}
					if dst == grid.NodeID(src) {
						t.Fatalf("%v/%s: src %d mapped to itself", dims, name, src)
					}
				}
			}
		}
	}
}

func TestPatternByNameUnknown(t *testing.T) {
	if _, err := ByName(meshtest.MustShape(4, 4), "zipf"); err == nil {
		t.Fatal("expected error for unknown pattern")
	}
	if _, err := ByName(meshtest.MustShape(1), "uniform"); err == nil {
		t.Fatal("expected error for a 1-node shape")
	}
}

// TestCheckPatternMatchesByName: CheckPattern refuses exactly what ByName
// refuses, with its error.
func TestCheckPatternMatchesByName(t *testing.T) {
	for _, dims := range [][]int{{1}, {2}, {4, 4}} {
		shape := meshtest.MustShape(dims...)
		for _, name := range append(PatternNames(), "zipf", "") {
			_, err := ByName(shape, name)
			cerr := CheckPattern(shape.NumNodes(), name)
			if (err == nil) != (cerr == nil) || err != nil && err.Error() != cerr.Error() {
				t.Errorf("%v/%q: CheckPattern = %v, ByName = %v", dims, name, cerr, err)
			}
		}
	}
}

// TestNeighborPatternIsOneHop pins the locality extreme: every destination
// is exactly one hop away.
func TestNeighborPatternIsOneHop(t *testing.T) {
	shape := meshtest.MustShape(4, 6, 3)
	pat := NewNeighbor(shape)
	r := rng.New(3)
	for src := 0; src < shape.NumNodes(); src++ {
		for rep := 0; rep < 6; rep++ {
			dst := pat.Dest(grid.NodeID(src), r)
			if d := shape.Distance(grid.NodeID(src), dst); d != 1 {
				t.Fatalf("src %d -> dst %d at distance %d", src, dst, d)
			}
		}
	}
}

// TestComplementPattern pins the deterministic mapping on an asymmetric
// shape.
func TestComplementPattern(t *testing.T) {
	shape := meshtest.MustShape(4, 6, 3)
	pat := NewComplement(shape)
	r := rng.New(1)
	src := shape.Index(grid.Coord{1, 2, 0})
	want := shape.Index(grid.Coord{2, 3, 2})
	if got := pat.Dest(src, r); got != want {
		t.Fatalf("complement: got %v, want %v", shape.CoordOf(got), shape.CoordOf(want))
	}
}

// TestTransposeRescalesToRadix checks the mixed-radix transpose stays in
// shape by construction (no clamping artifacts at the extremes).
func TestTransposeRescalesToRadix(t *testing.T) {
	shape := meshtest.MustShape(4, 6, 3)
	pat := NewTranspose(shape)
	r := rng.New(1)
	src := shape.Index(grid.Coord{3, 5, 2})
	dst := pat.Dest(src, r)
	c := shape.CoordOf(dst)
	// (3,5,2) rotates to components drawn from axes 1,2,0 rescaled:
	// 5*4/6=3, 2*6/3=4, 3*3/4=2.
	want := grid.Coord{3, 4, 2}
	if !c.Equal(want) {
		t.Fatalf("transpose: got %v, want %v", c, want)
	}
}

// TestDrawLongHaulPair pins the endpoint contract the experiment sweeps
// rely on: interior endpoints at distance >= diameter/2, plus exact rng
// stream compatibility with the historical drawPair (two Intn(N) draws per
// attempt).
func TestDrawLongHaulPair(t *testing.T) {
	shape := meshtest.MustShape(12, 12)
	r := rng.New(5)
	for i := 0; i < 200; i++ {
		s, d, err := DrawLongHaulPair(shape, r)
		if err != nil {
			t.Fatal(err)
		}
		if s == d || shape.OnBorder(s) || shape.OnBorder(d) {
			t.Fatalf("pair %d: bad endpoints %d, %d", i, s, d)
		}
		if shape.Distance(s, d) < shape.Diameter()/2 {
			t.Fatalf("pair %d: too close: %d", i, shape.Distance(s, d))
		}
	}
	// Stream compatibility: replay the same seed through the reference
	// loop and require identical pairs.
	ref := rng.New(5)
	got := rng.New(5)
	for i := 0; i < 50; i++ {
		var rs, rd grid.NodeID
		minD := shape.Diameter() / 2
		for {
			s := grid.NodeID(ref.Intn(shape.NumNodes()))
			d := grid.NodeID(ref.Intn(shape.NumNodes()))
			if s == d || shape.OnBorder(s) || shape.OnBorder(d) {
				continue
			}
			if shape.Distance(s, d) >= minD {
				rs, rd = s, d
				break
			}
		}
		gs, gd, err := DrawLongHaulPair(shape, got)
		if err != nil || gs != rs || gd != rd {
			t.Fatalf("pair %d: (%d,%d) %v != reference (%d,%d)", i, gs, gd, err, rs, rd)
		}
	}
}

// TestDrawLongHaulPairInfeasible: a shape whose interior holds no pair at
// half the diameter is an error before any draw, not an endless loop; the
// smallest feasible shapes still draw.
func TestDrawLongHaulPairInfeasible(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {3, 3, 3}, {2, 9}, {3}, {4, 4, 4}} {
		shape := meshtest.MustShape(dims...)
		r := rng.New(1)
		before := *r
		if _, _, err := DrawLongHaulPair(shape, r); err == nil {
			t.Errorf("%s: drew a pair", shape)
		}
		if *r != before {
			t.Errorf("%s: the refusal consumed the stream", shape)
		}
	}
	for _, dims := range [][]int{{5, 5}, {4, 5}, {10}, {5, 5, 5}} {
		shape := meshtest.MustShape(dims...)
		if _, _, err := DrawLongHaulPair(shape, rng.New(1)); err != nil {
			t.Errorf("%s: %v", shape, err)
		}
	}
}

// TestGeneratorDeterministic pins the injection sequence: same seed, same
// emissions.
func TestGeneratorDeterministic(t *testing.T) {
	shape := meshtest.MustShape(4, 6, 3)
	type ev struct{ s, d grid.NodeID }
	runOnce := func() []ev {
		pat, _ := ByName(shape, "hotspot")
		proc, _ := ProcessByName("bursty")
		gen := NewGenerator(shape, pat, proc, 0.2, rng.New(99))
		var out []ev
		for step := 0; step < 50; step++ {
			gen.Step(func(s, d grid.NodeID) bool { out = append(out, ev{s, d}); return true })
		}
		return out
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("emission %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("generator emitted nothing in 50 steps at rate 0.2")
	}
}

// TestProcessRates checks each arrival process offers approximately the
// nominal rate over a long horizon.
func TestProcessRates(t *testing.T) {
	const steps, nodes = 4000, 16
	const rate = 0.15
	for _, name := range ProcessNames() {
		proc, err := ProcessByName(name)
		if err != nil {
			t.Fatal(err)
		}
		proc.Reset(nodes)
		r := rng.New(11)
		total := 0
		for step := 0; step < steps; step++ {
			for node := 0; node < nodes; node++ {
				total += proc.Arrivals(node, rate, r)
			}
		}
		got := float64(total) / float64(steps*nodes)
		if got < 0.8*rate || got > 1.2*rate {
			t.Errorf("%s: offered rate %.4f, want ~%.2f", name, got, rate)
		}
	}
}

// TestPoissonMultiArrivals checks Poisson can offer more than one message
// per node-step (rate > 1 is meaningful).
func TestPoissonMultiArrivals(t *testing.T) {
	proc := &Poisson{}
	proc.Reset(1)
	r := rng.New(2)
	max := 0
	for i := 0; i < 2000; i++ {
		if k := proc.Arrivals(0, 2.0, r); k > max {
			max = k
		}
	}
	if max < 2 {
		t.Fatalf("Poisson(2.0) never produced a multi-arrival step (max %d)", max)
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	s := Summarize([]int{4, 2, 8, 6, 10})
	if s.N != 5 || s.Mean != 6 || s.Max != 10 {
		t.Fatalf("summary: %+v", s)
	}
	if s.P50 != 6 {
		t.Fatalf("p50: %d", s.P50)
	}
}

// TestCollectorPhases checks the measurement window partitioning.
func TestCollectorPhases(t *testing.T) {
	var c Collector
	ph := Phases{Warmup: 10, Measure: 20, Drain: 5}
	c.Reset(ph)
	c.Offer(5, true)   // warmup: not measured
	c.Offer(15, true)  // measured
	c.Offer(15, false) // measured drop
	c.Offer(29, true)  // measured (last window step)
	c.Offer(30, true)  // drain boundary: not measured
	c.Finish(15, 12, Delivered)
	c.Finish(29, 30, Delivered)
	c.Finish(5, 9, Delivered) // warmup flight: excluded
	c.Finish(16, 0, Unfinished)
	pt := c.Result(0.1, 10)
	if pt.Offered != 3 || pt.Injected != 2 || pt.Dropped != 1 {
		t.Fatalf("offer accounting: %+v", pt)
	}
	if pt.Delivered != 2 || pt.Unfinished != 1 {
		t.Fatalf("finish accounting: %+v", pt)
	}
	if pt.Latency.N != 2 || pt.Latency.Mean != 21 {
		t.Fatalf("latency: %+v", pt.Latency)
	}
	if want := 2.0 / (20 * 10); pt.AcceptedRate != want {
		t.Fatalf("accepted rate %v, want %v", pt.AcceptedRate, want)
	}
}
