// Package probe is the run-telemetry layer: concrete implementations of
// the engine's Probe interface that turn the per-step census emitted by
// the engine's commit loop into time-resolved artifacts — a
// step-level time series (TimeSeries), per-node residency and per-link
// stall heatmaps (Heatmap), a log-bucketed full latency distribution
// (LatencyHist), and a mutex-guarded live snapshot for introspection
// endpoints (Snapshot) — plus the Set multiplexer that fans one census
// out to all of them and the Manifest sidecar that makes every output
// file self-describing (config + seed + format version).
//
// Contracts: observation is read-only and off the decision path, so a
// probed run's results are byte-identical to the unprobed run at every
// worker count; every recorder is 0 allocs/op in steady state (pre-sized
// at construction, asserted by TestProbedStepAllocFree); and recorders
// fold the census's slice views immediately, never retaining them past
// the ObserveStep call.
package probe

import "ndmesh/internal/engine"

// LatencyObserver receives per-flight delivery latencies (in steps,
// queueing waits included). The census carries counts, not per-flight
// values, so the load run's harvest pass feeds latencies separately.
type LatencyObserver interface {
	ObserveLatency(steps int)
}

// Set fans one census (and one latency stream) out to a group of
// recorders. The zero value is ready to use; an empty set observes
// nothing.
type Set struct {
	probes []engine.Probe
	lats   []LatencyObserver
}

// AddProbe registers a census recorder. A recorder that also implements
// LatencyObserver is registered for latencies too.
func (s *Set) AddProbe(p engine.Probe) {
	s.probes = append(s.probes, p)
	if l, ok := p.(LatencyObserver); ok {
		s.lats = append(s.lats, l)
	}
}

// AddLatency registers a latency-only recorder.
func (s *Set) AddLatency(l LatencyObserver) {
	s.lats = append(s.lats, l)
}

// ObserveStep implements engine.Probe: every registered census recorder
// sees the same census, in registration order.
//
//meshvet:noalloc TestProbedStepAllocFree
func (s *Set) ObserveStep(c engine.StepCensus) {
	for _, p := range s.probes {
		p.ObserveStep(c)
	}
}

// ObserveLatency implements LatencyObserver by fan-out.
//
//meshvet:noalloc TestProbedStepAllocFree
func (s *Set) ObserveLatency(steps int) {
	for _, l := range s.lats {
		l.ObserveLatency(steps)
	}
}
