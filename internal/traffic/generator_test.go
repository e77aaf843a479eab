package traffic

import (
	"slices"
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/rng"
)

// TestGeneratorStepAllocFree pins the open-loop emit path: once the
// arrival process's per-node state is sized, a generator step performs no
// allocation — the runtime half of the //meshvet:noalloc directive on
// Generator.Step (see internal/lint's directive inventory).
func TestGeneratorStepAllocFree(t *testing.T) {
	shape, err := grid.NewShape(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		proc Process
	}{
		{"bernoulli", &Bernoulli{}},
		{"bursty", NewBursty(8, 24)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGenerator(shape, NewUniform(shape), tc.proc, 0.3, rng.New(7))
			sink := 0
			emit := func(src, dst grid.NodeID) bool { sink += int(src) + int(dst); return true }
			for i := 0; i < 50; i++ {
				g.Step(emit)
			}
			allocs := testing.AllocsPerRun(200, func() { g.Step(emit) })
			if allocs != 0 {
				t.Fatalf("generator step allocates %.1f allocs/op, want 0", allocs)
			}
			if sink < 0 {
				t.Fatal("unreachable; keeps sink live")
			}
		})
	}
}

// TestBernoulliGeneratorMatchesPerNodeLoop pins a Bernoulli generator's
// one-pass draw to the loop it replaced — one Arrivals call per node in node
// order, then the pattern's destination for each arrival, all from one
// stream: for every pattern and rate, 40 steps must emit the same (src, dst)
// sequence and leave the stream at the same place.
func TestBernoulliGeneratorMatchesPerNodeLoop(t *testing.T) {
	type pair struct{ src, dst grid.NodeID }
	for _, dims := range [][]int{{8, 8}, {6, 5, 4}} {
		shape, err := grid.NewShape(dims...)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range PatternNames() {
			for _, rate := range []float64{0, 0.02, 0.12, 0.5, 1} {
				pat, err := ByName(shape, name)
				if err != nil {
					t.Fatal(err)
				}
				gr, wr := rng.New(11), rng.New(11)
				g := NewGenerator(shape, pat, &Bernoulli{}, rate, gr)
				var got, want []pair
				proc := &Bernoulli{}
				for step := 0; step < 40; step++ {
					g.Step(func(src, dst grid.NodeID) bool { got = append(got, pair{src, dst}); return true })
					for node := 0; node < shape.NumNodes(); node++ {
						for k := proc.Arrivals(node, rate, wr); k > 0; k-- {
							src := grid.NodeID(node)
							want = append(want, pair{src, pat.Dest(src, wr)})
						}
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%v %s rate %v: generator emitted %d offers, the per-node loop %d (first %v vs %v)",
						dims, name, rate, len(got), len(want), head(got), head(want))
				}
				if gr.Uint64() != wr.Uint64() {
					t.Fatalf("%v %s rate %v: the streams part after 40 steps", dims, name, rate)
				}
			}
		}
	}
}

// head returns up to the first five elements of s.
func head[T any](s []T) []T { return s[:min(len(s), 5)] }
