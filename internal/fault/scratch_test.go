package fault

import (
	"fmt"
	"slices"
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
)

// referenceGenerate is the fixed-count generator as it stood before the
// process and the fixed count shared one placement loop: a fresh arrangement
// per global restart, each fault rejection-sampled inline. It returns the
// schedule and the number of restarts it took.
func referenceGenerate(shape *grid.Shape, faults int, opt Options, r *rng.Source) (*Schedule, int, error) {
	if opt.Interval < 1 {
		opt.Interval = 1
	}
	var placed []grid.NodeID
	var err error
	restarts := 0
	for ; restarts < 64; restarts++ {
		if placed, err = referencePlace(shape, faults, opt, r); err == nil {
			break
		}
	}
	if err != nil {
		return nil, restarts, err
	}
	sched := &Schedule{}
	for i, node := range placed {
		step := opt.Start + i*opt.Interval
		sched.Events = append(sched.Events, Event{Step: step, Node: node, Kind: Fail})
		if opt.RecoverAfter > 0 {
			sched.Events = append(sched.Events, Event{Step: step + opt.RecoverAfter, Node: node, Kind: Recover})
		}
	}
	sched.Sort()
	return sched, restarts, nil
}

func referencePlace(shape *grid.Shape, faults int, opt Options, r *rng.Source) ([]grid.NodeID, error) {
	n := shape.NumNodes()
	var placed []grid.NodeID
	for i := 0; i < faults; i++ {
		if i == 0 && opt.UseAnchor {
			if !acceptable(shape, opt.Anchor, placed, &opt) {
				return nil, fmt.Errorf("anchor")
			}
			placed = append(placed, opt.Anchor)
			continue
		}
		node := grid.InvalidNode
		for attempt := 0; attempt < 1024; attempt++ {
			cand := grid.NodeID(r.Intn(n))
			if opt.Clustered && len(placed) > 0 {
				seed := placed[r.Intn(len(placed))]
				d := grid.Dir(r.Intn(shape.NumDirs()))
				if nb := shape.Neighbor(seed, d); nb != grid.InvalidNode {
					cand = nb
				}
			}
			if acceptable(shape, cand, placed, &opt) {
				node = cand
				break
			}
		}
		if node == grid.InvalidNode {
			return nil, fmt.Errorf("fault %d", i+1)
		}
		placed = append(placed, node)
	}
	return placed, nil
}

// TestScratchGenerateMatchesReference holds the in-place fixed-count draw,
// on one Scratch and one Schedule reused across every case, and Generate to
// the reference generator for the same stream: the same events, the same
// errors, and the stream left at the same state. The cases cover an anchor
// (one the rules accept, and one they refuse followed by the unanchored
// fallback on the same stream), clustered growth, MinSpacing,
// Exclude/ExcludeRadius, RecoverAfter and a packing that needs a global
// restart.
func TestScratchGenerateMatchesReference(t *testing.T) {
	shape := meshtest.MustShape(10, 10)
	at := func(x, y int) grid.NodeID { return shape.Index(grid.Coord{x, y}) }
	cases := []struct {
		name    string
		shape   *grid.Shape
		faults  int
		opt     Options
		restart bool
	}{
		{"anchor", shape, 5, Options{Interval: 6, Start: 3, Anchor: at(4, 4), UseAnchor: true, MinSpacing: 2}, false},
		{"anchor-on-border", shape, 5, Options{Interval: 6, Anchor: at(0, 4), UseAnchor: true, MinSpacing: 2}, false},
		{"unanchored-fallback", shape, 5, Options{Interval: 6, Anchor: at(0, 4), MinSpacing: 2}, false},
		{"clustered", shape, 12, Options{Interval: 2, Start: 1, Clustered: true, MinSpacing: 4}, false},
		{"clustered-anchor", shape, 9, Options{Clustered: true, Anchor: at(5, 5), UseAnchor: true}, false},
		{"spacing", shape, 6, Options{Interval: 4, Start: 9, MinSpacing: 3}, false},
		{"exclude", shape, 7, Options{Interval: 5, Exclude: []grid.NodeID{at(3, 3), at(6, 7)}, ExcludeRadius: 2}, false},
		{"recover", shape, 6, Options{Interval: 3, Start: 2, RecoverAfter: 4}, false},
		// Chebyshev spacing 4 on the 7x7 interior packs at most 4 faults,
		// and a random sequential packing often paints itself into a
		// corner (a first fault at the centre admits no second).
		{"restart", meshtest.MustShape(9, 9), 4, Options{Interval: 2, MinSpacing: 4, RecoverAfter: 1}, true},
		{"infeasible", meshtest.MustShape(5, 5), 10, Options{}, false},
	}
	var s Scratch
	var sched Schedule
	restarted := false
	for seed := uint64(1); seed <= 40; seed++ {
		// One stream per seed runs through every case, as the anchored
		// draws of E15-E18 fall back to unanchored ones on the same stream.
		ref, got, fresh := rng.New(seed), rng.New(seed), rng.New(seed)
		for _, c := range cases {
			want, restarts, wantErr := referenceGenerate(c.shape, c.faults, c.opt, ref)
			before := slices.Clone(sched.Events)
			gotErr := s.Generate(&sched, c.shape, c.faults, c.opt, got)
			plain, plainErr := Generate(c.shape, c.faults, c.opt, fresh)
			if (wantErr != nil) != (gotErr != nil) || (wantErr != nil) != (plainErr != nil) {
				t.Fatalf("seed %d %s: errors differ: reference %v, scratch %v, Generate %v", seed, c.name, wantErr, gotErr, plainErr)
			}
			if wantErr != nil {
				if !slices.Equal(sched.Events, before) {
					t.Fatalf("seed %d %s: a failed draw changed the schedule", seed, c.name)
				}
			} else {
				if !slices.Equal(sched.Events, want.Events) || !slices.Equal(plain.Events, want.Events) {
					t.Fatalf("seed %d %s: drew\n scratch   %v\n Generate  %v\n reference %v", seed, c.name, sched.Events, plain.Events, want.Events)
				}
				restarted = restarted || (c.restart && restarts > 0)
			}
			if a, b, d := ref.Uint64(), got.Uint64(), fresh.Uint64(); a != b || a != d {
				t.Fatalf("seed %d %s: the streams parted", seed, c.name)
			}
		}
	}
	if !restarted {
		t.Fatal("no draw of the restart case needed a global restart; the case lost its teeth")
	}
	// A warm draw of the restart case, its restarts included, allocates
	// nothing.
	c := cases[8]
	r := rng.New(0)
	warm := func() {
		r.Reseed(3)
		if err := s.Generate(&sched, c.shape, c.faults, c.opt, r); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	if n := testing.AllocsPerRun(5, warm); n != 0 {
		t.Fatalf("a warm fixed-count draw allocates %v times", n)
	}
}
