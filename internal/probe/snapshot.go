package probe

import (
	"sync"

	"ndmesh/internal/engine"
)

// SnapshotState is the JSON shape the /debug/census endpoint serves:
// cumulative totals since the run started plus the gauges from the most
// recent flush.
type SnapshotState struct {
	Step        int  `json:"step"`
	Steps       int  `json:"steps"`
	Injected    int  `json:"injected"`
	Delivered   int  `json:"delivered"`
	Unreachable int  `json:"unreachable"`
	Lost        int  `json:"lost"`
	TimedOut    int  `json:"timed_out"`
	Retried     int  `json:"retried"`
	Failed      int  `json:"failed"`
	Recovered   int  `json:"recovered"`
	Moves       int  `json:"moves"`
	Stalls      int  `json:"stalls"`
	InFlight    int  `json:"in_flight"`
	Gridlocked  bool `json:"gridlocked"`
}

// Snapshot keeps a live, mutex-guarded census rollup for introspection
// endpoints. The run thread updates it on every flush (a mutex hit, no
// allocation); HTTP handlers read it concurrently with State.
type Snapshot struct {
	mu sync.Mutex
	s  SnapshotState
}

// ObserveStep implements engine.Probe: counters accumulate, gauges take
// the latest value.
//
//meshvet:noalloc TestProbedStepAllocFree
func (sn *Snapshot) ObserveStep(c engine.StepCensus) {
	sn.mu.Lock()
	sn.s.Step = c.Step
	sn.s.Steps += c.Steps
	sn.s.Injected += c.Injected
	sn.s.Delivered += c.Delivered
	sn.s.Unreachable += c.Unreachable
	sn.s.Lost += c.Lost
	sn.s.TimedOut += c.TimedOut
	sn.s.Retried += c.Retried
	sn.s.Failed += c.Failed
	sn.s.Recovered += c.Recovered
	sn.s.Moves += c.Moves
	sn.s.Stalls += c.Stalls
	sn.s.InFlight = c.InFlight
	sn.s.Gridlocked = c.Gridlocked
	sn.mu.Unlock()
}

// State returns a copy of the current rollup.
func (sn *Snapshot) State() SnapshotState {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.s
}
