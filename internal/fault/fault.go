// Package fault implements the dynamic fault model of Section 5: schedules
// of fault occurrences f_1, ..., f_F at steps t_1, ..., t_F with intervals
// d_i, optional recoveries (rule 5 events), and generators that respect the
// paper's model assumptions — no fault on the outermost surface of the
// mesh, the network stays connected via the block model, and intervals long
// enough for the information constructions to stabilize.
package fault

import (
	"cmp"
	"fmt"
	"slices"

	"ndmesh/internal/grid"
	"ndmesh/internal/rng"
)

// Kind distinguishes fault occurrences from recoveries.
type Kind uint8

const (
	// Fail marks a node faulty.
	Fail Kind = iota
	// Recover applies rule 5: the faulty node becomes clean.
	Recover
)

// String renders the kind.
func (k Kind) String() string {
	if k == Recover {
		return "recover"
	}
	return "fail"
}

// Event is one scheduled status change.
type Event struct {
	Step int
	Node grid.NodeID
	Kind Kind
}

// Schedule is a step-ordered list of events.
type Schedule struct {
	Events []Event
}

// Sort orders events by step (stable for same-step events).
func (s *Schedule) Sort() {
	slices.SortStableFunc(s.Events, func(a, b Event) int { return cmp.Compare(a.Step, b.Step) })
}

// LastStep returns the step of the final event (0 for an empty schedule).
func (s *Schedule) LastStep() int {
	if len(s.Events) == 0 {
		return 0
	}
	return s.Events[len(s.Events)-1].Step
}

// Options configures schedule generation.
type Options struct {
	// Interval is the gap d_i in steps between consecutive fault
	// occurrences (the paper's model assumes d_i exceeds the stabilization
	// time; pick >= a few mesh diameters for conforming runs).
	Interval int
	// Start is the step of the first fault, t_1.
	Start int
	// Exclude lists nodes that must never fail (source, destination).
	Exclude []grid.NodeID
	// ExcludeRadius keeps faults at least this Manhattan distance from
	// every excluded node.
	ExcludeRadius int
	// MinSpacing keeps each new fault at least this Chebyshev (L-inf)
	// distance from every earlier fault. A spacing of >= 4 keeps the
	// resulting one-node blocks and their frames disjoint ("only one new
	// block in each interval", the premise of Theorems 3-5).
	MinSpacing int
	// Clustered places each fault adjacent to a previously placed fault
	// when possible, growing one block instead of scattering.
	Clustered bool
	// Anchor, when UseAnchor is set, forces the first fault onto this node
	// (used to build adversarial scenarios with a block on a message's
	// path). The anchor must itself satisfy the placement constraints.
	Anchor    grid.NodeID
	UseAnchor bool
	// RecoverAfter, when positive, schedules a Recover event this many
	// steps after each Fail.
	RecoverAfter int
}

// Generate draws F fault occurrences on shape under the given options. The
// paper's "no fault at the outermost surface" assumption is always
// enforced. Placement is rejection sampling with global restarts: random
// sequential packing can paint itself into a corner (earlier faults can
// make the spacing constraint infeasible), so on a dead end the whole
// arrangement is redrawn. It returns an error only when the constraints
// look genuinely unsatisfiable.
func Generate(shape *grid.Shape, faults int, opt Options, r *rng.Source) (*Schedule, error) {
	var s Scratch
	sched := &Schedule{}
	if err := s.Generate(sched, shape, faults, opt, r); err != nil {
		return nil, err
	}
	return sched, nil
}

// Scratch is the working storage of both generators, kept by a caller that
// draws one schedule after another (a pooled load cell) so a warm draw
// allocates nothing. The zero value is ready to use.
type Scratch struct {
	// placed holds the nodes a draw places against: the fixed count's
	// arrangement so far, or the process's currently-faulty nodes, whose
	// scheduled Recover steps repairAt holds (-1 without repair).
	placed   []grid.NodeID
	repairAt []int
}

// Generate is the package's Generate writing into sched: it overwrites
// sched.Events, keeping its capacity, with the schedule Generate returns
// for the same arguments. On an error sched is left as it was.
func (s *Scratch) Generate(sched *Schedule, shape *grid.Shape, faults int, opt Options, r *rng.Source) error {
	if faults > 0 && opt.UseAnchor && !acceptable(shape, opt.Anchor, nil, &opt) {
		return fmt.Errorf("fault: anchor %v violates the placement constraints", shape.CoordOf(opt.Anchor))
	}
	const restarts, attemptsPer = 64, 1024
	s.placed = s.placed[:0]
	for restart := 0; len(s.placed) < faults; {
		node := opt.Anchor
		if len(s.placed) > 0 || !opt.UseAnchor {
			node = draw(shape, s.placed, &opt, attemptsPer, r)
		}
		if node != grid.InvalidNode {
			s.placed = append(s.placed, node)
			continue
		}
		// A dead end: redraw the whole arrangement.
		if restart++; restart == restarts {
			return fmt.Errorf("fault: cannot place fault %d of %d under constraints", len(s.placed)+1, faults)
		}
		s.placed = s.placed[:0]
	}
	interval := max(opt.Interval, 1)
	sched.Events = sched.Events[:0]
	for i, node := range s.placed {
		step := opt.Start + i*interval
		sched.Events = append(sched.Events, Event{Step: step, Node: node, Kind: Fail})
		if opt.RecoverAfter > 0 {
			sched.Events = append(sched.Events, Event{Step: step + opt.RecoverAfter, Node: node, Kind: Recover})
		}
	}
	sched.Sort()
	return nil
}

// draw is the one rejection-sampling loop both generators place a fault
// with: it tries up to attempts candidates — uniform over the mesh, or, when
// clustering, a random neighbor of a random placed node — and returns the
// first the placement rules accept against placed, or grid.InvalidNode.
func draw(shape *grid.Shape, placed []grid.NodeID, opt *Options, attempts int, r *rng.Source) grid.NodeID {
	n := shape.NumNodes()
	for attempt := 0; attempt < attempts; attempt++ {
		cand := grid.NodeID(r.Intn(n))
		if opt.Clustered && len(placed) > 0 {
			// Grow from a random placed fault along a random direction.
			seed := placed[r.Intn(len(placed))]
			d := grid.Dir(r.Intn(shape.NumDirs()))
			if nb := shape.Neighbor(seed, d); nb != grid.InvalidNode {
				cand = nb
			}
		}
		if acceptable(shape, cand, placed, opt) {
			return cand
		}
	}
	return grid.InvalidNode
}

func acceptable(shape *grid.Shape, cand grid.NodeID, placed []grid.NodeID, opt *Options) bool {
	if shape.OnBorder(cand) {
		return false
	}
	for _, ex := range opt.Exclude {
		if cand == ex || shape.Distance(cand, ex) <= opt.ExcludeRadius {
			return false
		}
	}
	for _, p := range placed {
		if cand == p {
			return false
		}
		if opt.Clustered {
			continue
		}
		if opt.MinSpacing > 0 && chebyshev(shape, cand, p) < opt.MinSpacing {
			return false
		}
	}
	return true
}

// chebyshev returns the L-infinity distance between two nodes.
func chebyshev(shape *grid.Shape, a, b grid.NodeID) int {
	m := 0
	for axis := 0; axis < shape.Dims(); axis++ {
		d := shape.Component(a, axis) - shape.Component(b, axis)
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// LinkFault converts a link fault between neighbors a and b into the node
// fault the model prescribes (Section 2.2: "link faults can be treated as
// node faults"): the endpoint farther from the outermost surface is the one
// marked faulty, preserving the model assumption that no fault lies on the
// outermost surface; ties break toward the smaller node id for determinism.
// It returns an error if a and b are not neighbors.
func LinkFault(shape *grid.Shape, a, b grid.NodeID) (grid.NodeID, error) {
	if shape.Distance(a, b) != 1 {
		return grid.InvalidNode, fmt.Errorf("fault: %v and %v are not neighbors",
			shape.CoordOf(a), shape.CoordOf(b))
	}
	da, db := borderDistance(shape, a), borderDistance(shape, b)
	switch {
	case da > db:
		return a, nil
	case db > da:
		return b, nil
	case a < b:
		return a, nil
	default:
		return b, nil
	}
}

// borderDistance returns the minimum distance from a node to the outermost
// surface of the mesh.
func borderDistance(shape *grid.Shape, id grid.NodeID) int {
	min := int(^uint(0) >> 1)
	for axis := 0; axis < shape.Dims(); axis++ {
		v := shape.Component(id, axis)
		if v < min {
			min = v
		}
		if d := shape.Radix(axis) - 1 - v; d < min {
			min = d
		}
	}
	return min
}
