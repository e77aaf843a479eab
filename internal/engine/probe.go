package engine

import "ndmesh/internal/route"

// This file is the engine's observability hook: an optional Probe that
// receives the per-step census assembled inside the step's commit loop. Observation is read-only and lives entirely off the
// decision path, so attaching a probe cannot change a single routing or
// arbitration outcome — a probed run's LoadPoint (and therefore every
// golden) is byte-identical to the unprobed run, at every worker count.
// With no probe attached the accumulation is skipped entirely; with one
// attached the step stays 0 allocs/op.

// StepCensus is what the engine reports per flush: the aggregate of every
// step since the previous flush (counters sum; gauges hold the
// value at the last covered step). The Resident/LinkStalls views alias the
// engine's live arrays and are valid only for the duration of the
// ObserveStep call — probes must fold them immediately, never retain them.
type StepCensus struct {
	// Step is the 1-based index of the last step this census covers; Steps
	// is how many steps it aggregates (>1 under decimation).
	Step, Steps int

	// Injected counts Inject calls; Delivered/Unreachable/Lost/TimedOut
	// classify the terminal transitions observed in the commit; Retried
	// counts NoteRetried calls (closed-loop timeout re-arms, reported by
	// the workload's harvest pass).
	Injected                               int
	Delivered, Unreachable, Lost, TimedOut int
	Retried                                int

	// Failed/Recovered count the fault-schedule events applied during the
	// covered steps — the fault process rendered alongside the traffic it
	// disturbs.
	Failed, Recovered int

	// Moves counts flights that advanced one hop; Stalls counts flights
	// that stayed in place un-terminated (lost arbitration or blocked on a
	// full buffer). Together with the terminal counters they partition the
	// per-step activity of the standing population.
	Moves, Stalls int

	// InFlight is the live population after the last covered commit;
	// Gridlocked the zero-progress latch at the same instant.
	InFlight   int
	Gridlocked bool

	// Resident[n] is the live per-node residency; LinkStalls[li] the gate
	// denials counted against directed link li (node*NumDirs + dir) during
	// the LAST covered step (the denial counters rotate every step), with
	// LinkStallsDirty listing the indexes with nonzero entries. All three
	// alias engine state: read-only, call-scoped.
	Resident        []int32
	LinkStalls      []int32
	LinkStallsDirty []int32
	NumDirs         int
}

// Probe receives step censuses from the engine. Implementations must be
// allocation-free in steady state (the census arrives on the hot path) and
// must not retain the census's slice views beyond the call.
type Probe interface {
	ObserveStep(StepCensus)
}

// SetProbe attaches (or, with nil, detaches) the engine's census probe and
// clears any partially accumulated census. Every step is counted, under the
// free configuration too, where no link stalls.
func (e *Engine) SetProbe(p Probe) {
	e.probe = p
	e.census = StepCensus{}
}

// NoteRetried records one retry re-arm into the census being assembled.
// The engine cannot see workload-side retry decisions (a timeout kill is
// terminal as far as routing is concerned), so the load run's harvest pass
// reports them here, between Step and FlushCensus, and the retry lands in
// the same step's census as the timeout that caused it.
//
//meshvet:noalloc TestEscapeClosedLoopStepAllocFree
func (e *Engine) NoteRetried() {
	if e.probe != nil {
		e.census.Retried++
	}
}

// FlushCensus emits the census accumulated since the previous flush to the
// attached probe and re-arms it. Load runs call it once per step right
// after the harvest pass (or every N steps under decimation — the counters
// aggregate, the gauges and the link-stall view are the last step's); a
// flush with no probe attached or no steps covered is a no-op.
//
//meshvet:noalloc TestProbedStepAllocFree
func (e *Engine) FlushCensus() {
	if e.probe == nil || e.census.Steps == 0 {
		return
	}
	c := &e.ctn
	cs := e.census
	cs.Step = e.step
	cs.Resident = c.resident
	cs.LinkStalls = c.pending
	cs.LinkStallsDirty = c.pendingDty
	cs.NumDirs = int(c.numDirs)
	e.probe.ObserveStep(cs)
	e.census = StepCensus{}
}

// observe folds one flight's commit into the census: whether it moved or
// stalled in place, and the terminal state it reached, if any.
//
//meshvet:noalloc TestContentionStepAllocFree
func (cs *StepCensus) observe(msg *route.Message, moved bool) {
	switch {
	case moved:
		cs.Moves++
	case !msg.Done():
		cs.Stalls++
	}
	switch {
	case msg.Arrived:
		cs.Delivered++
	case msg.Unreachable:
		cs.Unreachable++
	case msg.Lost:
		cs.Lost++
	case msg.TimedOut:
		cs.TimedOut++
	}
}
