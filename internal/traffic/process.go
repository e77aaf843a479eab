package traffic

import (
	"fmt"
	"math"

	"ndmesh/internal/rng"
)

// Process is an open-loop arrival process: how many messages one source
// node offers in one step at a given per-node rate (messages/node/step).
// Processes may keep per-node state (the bursty on/off chain does); Reset
// sizes that state for the mesh and rewinds it between runs.
type Process interface {
	// Reset prepares per-node state for a run over numNodes sources.
	Reset(numNodes int)
	// Arrivals returns the number of messages node offers this step.
	Arrivals(node int, rate float64, r *rng.Source) int
	// MaxRate is the largest nominal rate the process can offer
	// faithfully; beyond it the realized rate silently clips (a Bernoulli
	// source cannot exceed 1 msg/node/step, a bursty one duty*1). Load
	// runs reject rates above it so the reported offered rate is honest.
	MaxRate() float64
}

// ProcessNames lists the processes ProcessByName accepts.
func ProcessNames() []string { return []string{"bernoulli", "poisson", "bursty"} }

// burstyOn and burstyOff are the mean burst and gap lengths of the process
// ProcessByName calls "bursty".
const burstyOn, burstyOff = 8, 24

// ProcessByName builds an arrival process by CLI name.
func ProcessByName(name string) (Process, error) {
	switch name {
	case "", "bernoulli":
		return &Bernoulli{}, nil
	case "poisson":
		return &Poisson{}, nil
	case "bursty":
		return NewBursty(burstyOn, burstyOff), nil
	default:
		return nil, unknownProcess(name)
	}
}

// MaxRate returns the MaxRate of the process ProcessByName(name) builds, or
// its error, building nothing.
func MaxRate(name string) (float64, error) {
	switch name {
	case "", "bernoulli":
		return (*Bernoulli)(nil).MaxRate(), nil
	case "poisson":
		return (*Poisson)(nil).MaxRate(), nil
	case "bursty":
		b := Bursty{MeanOn: burstyOn, MeanOff: burstyOff}
		return b.MaxRate(), nil
	default:
		return 0, unknownProcess(name)
	}
}

func unknownProcess(name string) error {
	return fmt.Errorf("traffic: unknown arrival process %q", name)
}

// Bernoulli offers at most one message per node per step, with probability
// rate — the standard injection process of NoC saturation studies.
type Bernoulli struct{}

// Reset implements Process.
func (*Bernoulli) Reset(int) {}

// MaxRate implements Process: at most one message per node-step.
func (*Bernoulli) MaxRate() float64 { return 1 }

// Arrivals implements Process.
func (*Bernoulli) Arrivals(_ int, rate float64, r *rng.Source) int {
	if r.Bool(rate) {
		return 1
	}
	return 0
}

// Poisson offers Poisson(rate) messages per node per step, allowing
// multi-arrival steps (rate may exceed 1).
type Poisson struct{}

// Reset implements Process.
func (*Poisson) Reset(int) {}

// MaxRate implements Process: Poisson arrivals batch, so any rate is
// offered faithfully.
func (*Poisson) MaxRate() float64 { return math.Inf(1) }

// Arrivals implements Process — Knuth's product-of-uniforms sampler, exact
// for the moderate rates load sweeps use.
func (*Poisson) Arrivals(_ int, rate float64, r *rng.Source) int {
	if rate <= 0 {
		return 0
	}
	l := math.Exp(-rate)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1<<16 { // defensive cap against pathological rates
			return k
		}
	}
}

// Bursty is a per-node on/off Markov-modulated Bernoulli process:
// geometrically distributed ON bursts (mean MeanOn steps) separated by OFF
// gaps (mean MeanOff). During ON the node injects with probability
// rate/duty (duty = MeanOn/(MeanOn+MeanOff)), so the long-run offered rate
// matches the nominal rate until the ON-probability clips at 1.
type Bursty struct {
	// MeanOn and MeanOff are the mean burst and gap lengths in steps.
	MeanOn, MeanOff int //meshvet:keep rate parameters, not trial state

	started []bool
	on      []bool
	left    []int
}

// NewBursty builds a bursty process with the given mean burst/gap lengths.
func NewBursty(meanOn, meanOff int) *Bursty {
	if meanOn < 1 {
		meanOn = 1
	}
	if meanOff < 1 {
		meanOff = 1
	}
	return &Bursty{MeanOn: meanOn, MeanOff: meanOff}
}

// MaxRate implements Process: during a burst the node injects at most one
// message per step, so the long-run offered rate caps at the duty cycle.
func (b *Bursty) MaxRate() float64 { return b.duty() }

// Reset implements Process.
func (b *Bursty) Reset(numNodes int) {
	if len(b.on) != numNodes {
		b.started = make([]bool, numNodes)
		b.on = make([]bool, numNodes)
		b.left = make([]int, numNodes)
		return
	}
	for i := range b.on {
		b.started[i], b.on[i], b.left[i] = false, false, 0
	}
}

// duty returns the ON fraction of the cycle.
func (b *Bursty) duty() float64 {
	return float64(b.MeanOn) / float64(b.MeanOn+b.MeanOff)
}

// Arrivals implements Process.
func (b *Bursty) Arrivals(node int, rate float64, r *rng.Source) int {
	if !b.started[node] {
		// Stagger the phases: each node starts ON with the stationary
		// probability instead of every burst beginning at step 0.
		b.started[node] = true
		b.on[node] = r.Bool(b.duty())
		b.left[node] = b.drawLen(b.on[node], r)
	}
	for b.left[node] == 0 {
		b.on[node] = !b.on[node]
		b.left[node] = b.drawLen(b.on[node], r)
	}
	b.left[node]--
	if !b.on[node] {
		return 0
	}
	onRate := rate / b.duty()
	if onRate > 1 {
		onRate = 1
	}
	if r.Bool(onRate) {
		return 1
	}
	return 0
}

func (b *Bursty) drawLen(on bool, r *rng.Source) int {
	mean := b.MeanOff
	if on {
		mean = b.MeanOn
	}
	return r.Geometric(1.0 / float64(mean))
}
