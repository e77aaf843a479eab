package fault

// This file is the stochastic fault process behind E23's reliability
// curves: instead of a fixed-count schedule laid out before step 0
// (Generate), failures arrive *throughout* a run — warmup, measure and
// drain — with random inter-arrival times, optionally repaired a random
// delay later. The output is still a plain Schedule, so everything
// downstream (the engine's step-0 event cursor, trace record/replay, the
// conservation invariants) works unchanged; only the generator differs.
//
// Determinism contract: GenerateProcess is a pure function of (shape,
// options, stream). Callers hand it a dedicated stream split from the
// run's — never the traffic stream itself — so the offered workload is
// byte-identical across fault rates, models and repair settings (and the
// fault schedule is byte-identical across traffic patterns). The load
// runner (saturation.go) owns that split.

import (
	"fmt"
	"math"

	"ndmesh/internal/grid"
	"ndmesh/internal/rng"
)

// Delay model names for Delay.Model.
const (
	// DelayBernoulli draws geometric inter-arrivals: every step is an
	// independent Bernoulli trial with probability Rate, so delays are
	// Geometric(Rate) with mean 1/Rate steps — the memoryless model.
	DelayBernoulli = "bernoulli"
	// DelayWeibull draws Weibull inter-arrivals by inverse CDF with the
	// given Shape; the scale is derived so the mean stays 1/Rate steps.
	// Shape < 1 clusters failures (infant mortality), shape > 1 spreads
	// them (wear-out) — the standard reliability-engineering family.
	DelayWeibull = "weibull"
)

// Delay is one inter-arrival distribution of the fault process, used both
// for failure arrivals and for repair delays. The zero value is "disabled"
// (Sample must not be called on it); a populated Delay always samples
// >= 1 step.
type Delay struct {
	// Model is DelayBernoulli or DelayWeibull ("" = disabled).
	Model string
	// Rate is the mean event rate per step (mean delay = 1/Rate), in
	// (0, 1] — at 1 an event fires every step.
	Rate float64
	// Shape is the Weibull shape parameter k (ignored by bernoulli;
	// <= 0 defaults to 1, the exponential).
	Shape float64
}

// Enabled reports whether the delay is configured (non-empty model).
func (d Delay) Enabled() bool { return d.Model != "" }

// validate checks the delay's parameters, naming what it configures in
// errors.
func (d Delay) validate(what string) error {
	switch d.Model {
	case DelayBernoulli, DelayWeibull:
	default:
		return fmt.Errorf("fault: unknown %s model %q (want %s|%s)", what, d.Model, DelayBernoulli, DelayWeibull)
	}
	if d.Rate <= 0 || d.Rate > 1 {
		return fmt.Errorf("fault: %s rate %v out of range (0, 1]", what, d.Rate)
	}
	if d.Model == DelayWeibull && d.Shape < 0 {
		return fmt.Errorf("fault: %s weibull shape %v must be >= 0", what, d.Shape)
	}
	return nil
}

// Sample draws one delay in steps (always >= 1).
func (d Delay) Sample(r *rng.Source) int {
	switch d.Model {
	case DelayWeibull:
		k := d.Shape
		if k <= 0 {
			k = 1
		}
		// Scale so the mean delay is 1/Rate: E[Weibull(λ,k)] = λ·Γ(1+1/k).
		scale := 1 / (d.Rate * math.Gamma(1+1/k))
		u := r.Float64()
		w := scale * math.Pow(-math.Log1p(-u), 1/k)
		n := int(math.Round(w))
		if n < 1 {
			n = 1
		}
		return n
	default: // DelayBernoulli
		return r.Geometric(d.Rate)
	}
}

// ProcessOptions configures GenerateProcess.
type ProcessOptions struct {
	// Arrival is the failure inter-arrival distribution (required).
	Arrival Delay
	// Repair, when enabled, schedules a Recover event for every Fail a
	// Repair.Sample delay later. A repaired node may fail again.
	Repair Delay
	// Start is the earliest step an arrival may land on (>= 1: the engine
	// applies step-0 events before any traffic moves, which is the static
	// regime Generate covers); Horizon is the last. The first failure
	// arrives at Start-1 plus one inter-arrival sample.
	Start, Horizon int
	// MaxActive caps the concurrently-faulty node count; an arrival while
	// the cap is reached is skipped (the mesh is already as degraded as
	// allowed). 0 means no cap beyond placement feasibility.
	MaxActive int
	// Exclude/ExcludeRadius/MinSpacing/Clustered are the placement rules of
	// Options, applied against the *currently faulty* set: a repaired
	// node's neighborhood opens up again. The outermost-surface exclusion
	// is always enforced.
	Exclude       []grid.NodeID
	ExcludeRadius int
	MinSpacing    int
	Clustered     bool
}

// GenerateProcess draws a stochastic failure (and optionally repair)
// schedule spanning [Start, Horizon]. Arrivals whose placement is
// infeasible at their step (every candidate violates the rules, or
// MaxActive is reached) are skipped rather than erroring: a saturated mesh
// simply cannot degrade further, and the process keeps going — later
// repairs reopen capacity. Repair events may land past Horizon (a run just
// never applies them). The returned schedule is step-sorted with Fail
// events before the Recover events of the same step already applied,
// because the placement bookkeeping replays the same order the engine
// will.
func GenerateProcess(shape *grid.Shape, opt ProcessOptions, r *rng.Source) (*Schedule, error) {
	var s Scratch
	sched := &Schedule{}
	if err := s.GenerateProcess(sched, shape, opt, r); err != nil {
		return nil, err
	}
	return sched, nil
}

// Check returns the error GenerateProcess refuses opt with, and nil for
// options it draws from, drawing nothing.
func (opt *ProcessOptions) Check() error {
	if err := opt.Arrival.validate("fault arrival"); err != nil {
		return err
	}
	if opt.Repair.Enabled() {
		if err := opt.Repair.validate("repair delay"); err != nil {
			return err
		}
	}
	if start := max(opt.Start, 1); opt.Horizon < start {
		return fmt.Errorf("fault: process horizon %d precedes start %d", opt.Horizon, start)
	}
	if opt.MaxActive < 0 {
		return fmt.Errorf("fault: MaxActive %d must be >= 0", opt.MaxActive)
	}
	return nil
}

// GenerateProcess is the package's GenerateProcess writing into sched: it
// overwrites sched.Events, keeping its capacity, with the schedule
// GenerateProcess returns for the same arguments. On an error sched is left
// as it was.
func (s *Scratch) GenerateProcess(sched *Schedule, shape *grid.Shape, opt ProcessOptions, r *rng.Source) error {
	if err := opt.Check(); err != nil {
		return err
	}
	opt.Start = max(opt.Start, 1)

	const attemptsPer = 256
	placeOpt := Options{
		Exclude:       opt.Exclude,
		ExcludeRadius: opt.ExcludeRadius,
		MinSpacing:    opt.MinSpacing,
		Clustered:     opt.Clustered,
	}
	sched.Events = sched.Events[:0]
	active, repairAt := s.placed[:0], s.repairAt[:0]
	for t := opt.Start - 1 + opt.Arrival.Sample(r); t <= opt.Horizon; t += opt.Arrival.Sample(r) {
		// Apply the repairs due strictly before this arrival's step, so
		// placement sees the mesh exactly as the engine will at step t
		// (the engine applies events in schedule order; a Recover at step
		// t sorts before a same-step Fail only if scheduled earlier, so
		// same-step repairs are conservatively treated as still faulty).
		for i := 0; i < len(active); {
			if repairAt[i] >= 0 && repairAt[i] < t {
				active[i] = active[len(active)-1]
				repairAt[i] = repairAt[len(repairAt)-1]
				active = active[:len(active)-1]
				repairAt = repairAt[:len(repairAt)-1]
				continue
			}
			i++
		}
		if opt.MaxActive > 0 && len(active) >= opt.MaxActive {
			continue
		}
		node := draw(shape, active, &placeOpt, attemptsPer, r)
		if node == grid.InvalidNode {
			continue // saturated under the placement rules; skip this arrival
		}
		sched.Events = append(sched.Events, Event{Step: t, Node: node, Kind: Fail})
		ra := -1
		if opt.Repair.Enabled() {
			ra = t + opt.Repair.Sample(r)
			sched.Events = append(sched.Events, Event{Step: ra, Node: node, Kind: Recover})
		}
		active = append(active, node)
		repairAt = append(repairAt, ra)
	}
	s.placed, s.repairAt = active, repairAt
	sched.Sort()
	return nil
}
