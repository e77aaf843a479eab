package traffic

import (
	"ndmesh/internal/stats"
)

// Phases splits a load run into the standard three windows of synthetic
// NoC evaluation: Warmup steps fill the network to steady state (flights
// injected here are routed but not measured), Measure steps are the
// observation window (flights injected here produce the statistics), and
// Drain steps stop injection and let measured flights finish so the
// latency sample is not censored toward short flights.
type Phases struct {
	Warmup, Measure, Drain int
}

// Total returns the run length in steps.
func (p Phases) Total() int { return p.Warmup + p.Measure + p.Drain }

// InjectUntil returns the first step with injection disabled (drain start).
func (p Phases) InjectUntil() int { return p.Warmup + p.Measure }

// Measured reports whether a flight injected at step belongs to the
// measurement window.
func (p Phases) Measured(step int) bool {
	return step >= p.Warmup && step < p.Warmup+p.Measure
}

// Outcome is the terminal classification of one flight.
type Outcome uint8

const (
	// Delivered flights arrived at their destination.
	Delivered Outcome = iota
	// Unreachable flights exhausted the search (no enabled path found).
	Unreachable
	// Lost flights died on a path segment that failed under them.
	Lost
	// Unfinished flights were still in flight when the run's step budget
	// (including the drain) ran out — at saturation the backlog never
	// drains, and these count against accepted throughput.
	Unfinished
	// TimedOut flights were killed back to their source by the contention
	// engine's flight timeout after stalling past the threshold (the
	// deadlock-escape path). In a closed-loop workload the source's window
	// slot re-arms and the request is retried under backoff.
	TimedOut
)

// Collector accumulates one load run's per-flight observations into a
// LoadPoint. All counters partition by injection step: only flights
// injected inside the measurement window enter the statistics, exactly as
// the warmup/measure/drain methodology prescribes.
type Collector struct {
	ph Phases

	// All counters restrict to flights offered/injected inside the
	// measurement window; warmup and drain traffic shapes the network but
	// is not accounted.
	OfferedMeasured, InjectedMeasured  int
	DroppedMeasured                    int
	deliveredMeasured, unreachMeasured int
	lostMeasured, unfinishedMeasured   int
	timedOutMeasured, retriedMeasured  int

	latencies []int // of measured delivered flights
}

// Reset rewinds the collector for a run with the given phases, keeping the
// latency sample's capacity.
func (c *Collector) Reset(ph Phases) {
	lat := c.latencies[:0]
	*c = Collector{ph: ph, latencies: lat}
}

// Offer records one offered endpoint pair at the given step; accepted
// reports whether it was actually injected (false = dropped at the source:
// full input queue or bad node).
func (c *Collector) Offer(step int, accepted bool) {
	if !c.ph.Measured(step) {
		return
	}
	c.OfferedMeasured++
	if accepted {
		c.InjectedMeasured++
	} else {
		c.DroppedMeasured++
	}
}

// Finish records one flight's terminal state: the step it was injected,
// its latency in steps (ignored unless Delivered), and its outcome.
func (c *Collector) Finish(startStep, latency int, oc Outcome) {
	if !c.ph.Measured(startStep) {
		return
	}
	switch oc {
	case Delivered:
		c.deliveredMeasured++
		c.latencies = append(c.latencies, latency)
	case Unreachable:
		c.unreachMeasured++
	case Lost:
		c.lostMeasured++
	case Unfinished:
		c.unfinishedMeasured++
	case TimedOut:
		c.timedOutMeasured++
	}
}

// Retry records that a measured flight's timeout re-armed its source slot
// for a retry (closed-loop workloads only). Each timeout re-arms at most
// once, so a request that times out k times contributes k retries — the
// "retried counted once per timeout" side of the conservation invariant.
func (c *Collector) Retry(startStep int) {
	if !c.ph.Measured(startStep) {
		return
	}
	c.retriedMeasured++
}

// Result folds the run into a LoadPoint for a mesh of numNodes sources
// offered the given per-node rate. It ranks the latency sample in place
// (Summarize); nothing reads the sample after Result but Reset.
func (c *Collector) Result(rate float64, numNodes int) LoadPoint {
	pt := LoadPoint{
		OfferedRate: rate,
		Offered:     c.OfferedMeasured,
		Injected:    c.InjectedMeasured,
		Dropped:     c.DroppedMeasured,
		Delivered:   c.deliveredMeasured,
		Unreachable: c.unreachMeasured,
		Lost:        c.lostMeasured,
		Unfinished:  c.unfinishedMeasured,
		TimedOut:    c.timedOutMeasured,
		Retried:     c.retriedMeasured,
		Latency:     Summarize(c.latencies),
	}
	if steps := c.ph.Measure * numNodes; steps > 0 {
		pt.AcceptedRate = float64(pt.Delivered) / float64(steps)
	}
	return pt
}

// LoadPoint is one point of a latency-throughput curve: the offered load
// and what the network actually did with the measurement-window traffic.
type LoadPoint struct {
	// OfferedRate is the nominal injection rate (messages/node/step);
	// AcceptedRate is Delivered over the measurement window's node-steps.
	// Below saturation the two track each other; past it AcceptedRate
	// plateaus while latency (and Unfinished) grows.
	OfferedRate, AcceptedRate float64
	// Offered = Injected + Dropped; the remaining counters classify the
	// injected flights' outcomes. All restrict to the measurement window.
	Offered, Injected, Dropped               int
	Delivered, Unreachable, Lost, Unfinished int
	// TimedOut counts injected flights the engine's flight timeout killed
	// back to their source; Retried counts the timeouts that re-armed a
	// closed-loop window slot (each timeout at most once). Conservation:
	// Injected == Delivered + Unreachable + Lost + TimedOut + Unfinished,
	// with retried requests re-counted under Offered/Injected when the
	// source re-offers them.
	TimedOut, Retried int
	// RetryDropped counts measured retries still pending when the run
	// ended — timed-out requests whose backoff outlived the injection
	// window, so they were never re-offered (open-loop retry only; the
	// closed loop's deferred slots surface as Unfinished window pressure).
	// Without it the gap between Retried and the re-offers would be silent.
	RetryDropped int
	// Failed/Recovered count the fault-process events the engine actually
	// applied during the run — whole-run totals (a fault process
	// deliberately spans warmup, measure and drain), not restricted to the
	// measurement window like the traffic counters above.
	Failed, Recovered int
	// Gridlocked reports that the engine's zero-progress detector was still
	// latched when the run ended: a terminal gridlock no escape mechanism
	// resolved (the run was cut short rather than spun to its budget).
	// GridlockStep is the 1-based step the detector first fired (0 = never);
	// RecoverySteps is the time from first detection to the first
	// subsequent progress (0 = never fired or never recovered).
	Gridlocked                  bool
	GridlockStep, RecoverySteps int
	// Latency summarizes the delivered measured flights' step counts.
	Latency LatencySummary
}

// LatencySummary condenses a latency sample (steps from injection to
// delivery, waits included) into the headline order statistics.
type LatencySummary struct {
	Mean          float64
	P50, P95, P99 int
	Max           int
	N             int
}

// Summarize computes the summary of a latency sample. It takes the mean in
// the sample's own order first, then sorts samples in place to rank it.
func Summarize(samples []int) LatencySummary {
	if len(samples) == 0 {
		return LatencySummary{}
	}
	var sum stats.Summary
	for _, v := range samples {
		sum.AddInt(v)
	}
	var qs [3]int
	stats.Percentiles(qs[:], samples, 0.50, 0.95, 0.99)
	return LatencySummary{
		Mean: sum.Mean(),
		P50:  qs[0],
		P95:  qs[1],
		P99:  qs[2],
		Max:  int(sum.Max()),
		N:    len(samples),
	}
}
