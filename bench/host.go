package main

import (
	"runtime"
	"sync"
	"time"

	"ndmesh/internal/rng"
)

// The calibration kernel is a fixed amount of work that touches nothing of
// the repository: an xorshift ALU spin and a dependent-load chase through a
// buffer larger than the last-level cache. Its time moves only when the
// host moves, so it is run once at length in set-up and briefly beside
// every rep; a shift that shows in every workload's timings AND in the
// kernel is the host, not the code.
const (
	// chaseRefNs is the chase kernel's cost in the reference host's quiet
	// regime. Timings are reported scaled to it (see discount), so the
	// numbers of two runs are comparable although the host moved between
	// them; the constant itself only fixes the unit.
	chaseRefNs = 130.0
	chaseBytes = 16 << 20
	// One short calibration: a ~10 ms spin (the ALU hardly moves on this
	// host) and a ~45 ms chase (the memory system is what moves, and the
	// chase is what the discount is taken from).
	aluIters   = 6 << 20
	chaseLoads = 320 << 10
	longFactor = 5 // the set-up calibration is this many short ones
)

// aluSink and chaseSink keep the kernels' results live so the compiler
// cannot delete the loops.
var (
	aluSink   uint64
	chaseSink uint32
)

// host owns the calibration state and the samples taken during a run.
type host struct {
	chase []uint32 // one random cycle over every slot (Sattolo)
	scale int      // work divisor (quick mode)

	alu, load []float64       // ns per iteration / per load, one per calibration
	short     []time.Duration // wall of each short calibration, in rep order
	par2      float64
}

// newHost builds the chase cycle. The permutation is drawn from a fixed
// stream: the kernel must be the same work under every -seed.
func newHost(scale int) *host {
	n := chaseBytes / 4 / scale
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	r := rng.New(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i) // Sattolo: j < i yields a single cycle
		next[i], next[j] = next[j], next[i]
	}
	return &host{chase: next, scale: scale}
}

func spinALU(iters int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func (h *host) chaseLoop(loads int) {
	p := chaseSink % uint32(len(h.chase))
	for i := 0; i < loads; i++ {
		p = h.chase[p]
	}
	chaseSink = p
}

// calibrate runs factor short kernels' worth of work, records the per-unit
// costs and returns the wall time.
func (h *host) calibrate(factor int) time.Duration {
	iters := aluIters * factor / h.scale
	loads := chaseLoads * factor / h.scale
	t0 := now()
	aluSink += spinALU(iters)
	t1 := now()
	h.chaseLoop(loads)
	t2 := now()
	h.alu = append(h.alu, float64(t1-t0)/float64(iters))
	h.load = append(h.load, float64(t2-t1)/float64(loads))
	return t2 - t0
}

// beside runs the short calibration that accompanies one rep.
func (h *host) beside() { h.short = append(h.short, h.calibrate(1)) }

// measurePar2 records whether a second core is really there: the same spin
// on two goroutines at once against one alone. 2.0 is a free second core,
// 1.0 none.
func (h *host) measurePar2() {
	iters := aluIters * 2 / h.scale
	t0 := now()
	aluSink += spinALU(iters)
	one := now() - t0
	var wg sync.WaitGroup
	var sums [2]uint64
	t0 = now()
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = spinALU(iters)
		}()
	}
	wg.Wait()
	two := now() - t0
	aluSink += sums[0] + sums[1]
	h.par2 = 2 * float64(one) / float64(two)
}

// discount is the factor every end-to-end timing of the run is multiplied
// by: the reference chase cost over the run's median chase cost. On this
// host the run-to-run noise is contention in the memory system — the ALU
// spin barely moves while the dependent-load chase and the workloads slow
// down together — so scaling by the chase roughly halves the spread between
// runs (README.md has the measurements). Below 1 the host was slower than
// the reference and the raw timings were longer than reported.
func (h *host) discount() float64 {
	return chaseRefNs / summarize(h.load).Median
}

// normRepTime is the median over reps of rep wall / adjacent calibration
// wall: the host-discounted cost of one body, in units of the kernel.
func (h *host) normRepTime(walls []time.Duration) float64 {
	n := min(len(walls), len(h.short))
	ratios := make([]float64, n)
	for i := range ratios {
		ratios[i] = float64(walls[i]) / float64(h.short[i])
	}
	return summarize(ratios).Median
}

// metrics reports the host layer.
func (h *host) metrics(walls []time.Duration) []sample {
	alu, load := summarize(h.alu), summarize(h.load)
	return []sample{
		{Metric: "host.alu_ns_per_iter", Value: alu.Median, Q1: alu.Q1, Q3: alu.Q3, N: alu.N},
		{Metric: "host.chase_ns_per_load", Value: load.Median, Q1: load.Q1, Q3: load.Q3, N: load.N},
		{Metric: "host.par2_speedup", Value: h.par2},
		{Metric: "host.gomaxprocs", Value: float64(runtime.GOMAXPROCS(0))},
		{Metric: "host.norm_rep_time", Value: h.normRepTime(walls)},
		{Metric: "host.discount", Value: h.discount()},
	}
}
