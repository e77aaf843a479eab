// Package engine implements the execution model of Section 5 and Figure 7:
// time advances in steps; each step performs fault detection (scheduled
// events become visible to neighbors), λ rounds of fault-information
// exchange and update (every protocol message advances one hop per round),
// then message reception, routing decision and message sending (every
// routing message advances one hop per step).
//
// The engine also keeps the per-occurrence bookkeeping of Table 1: for each
// fault/recovery event i it measures a_i (labeling stabilization rounds),
// b_i (identification rounds), c_i (boundary rounds), the number of
// affected nodes, e_max and the information-store size. D(i), a message's
// distance-to-go at the occurrence, is not the engine's: the E11-E13 sweep
// samples it for its one flight from the step loop it drives.
//
// Contracts the rest of the stack builds on:
//
//   - Determinism: flights are polled in injection order, so the opt-in
//     contention model's link arbitration is an age-ordered FIFO and the
//     step is one serial loop with no goroutine-scheduling dependence.
//   - Reset: Reset rewinds the engine to step 0 recycling flights into a
//     free list and truncating the event log in place (results handed out
//     earlier must be consumed first); ClearFlights retires the flight
//     population only; DetachDone is the per-step harvest. Together with
//     the recycling in Inject they make the steady-state step 0 allocs/op
//     — asserted by the Test*AllocFree tests.
//   - Layout: a step is memory-bound, so per-flight state is laid out for
//     the loop that walks it. A Flight holds its message header by value
//     and comes from a slab, whose route.Arena holds the headers' path
//     stacks and used-direction tables; the flight list keeps the live
//     flights as a dense prefix in injection order (terminated ones behind
//     it, until harvested), compacted by the commit loop itself; routing
//     scratch is the engine's (one route.Context), never a flight's.
package engine

import (
	"fmt"

	"ndmesh/internal/block"
	"ndmesh/internal/core"
	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/route"
)

// Flight is one routing message in flight with its router. Flights are
// carved from slabs and hold their message header by value (Msg points at
// it), so the step loop walks one contiguous run of memory per flight.
// Routing scratch is not per flight — the engine owns the route.Context.
type Flight struct {
	// Msg is the flight's header; it points into the flight itself.
	Msg    *route.Message
	Router route.Router
	// StartStep is the step the message was injected (the t of Table 1).
	StartStep int

	// StallAge counts the consecutive contention steps this flight has
	// spent in place without terminating: it increments every step the
	// flight neither moves nor reaches a terminal state, and resets to 0 on
	// any move. FlightTimeout kills a flight whose StallAge reaches the
	// threshold; the gridlock detector uses the same census in aggregate.
	StallAge int

	// resident marks that the flight is counted in the contention model's
	// per-node residency (cleared when the count is released).
	resident bool

	msg route.Message
}

// flightSlab is how many flights one free-list miss allocates at once.
const flightSlab = 64

// EventRecord captures one fault occurrence (or recovery) and the
// convergence of the information constructions it triggered.
type EventRecord struct {
	// Index is i (1-based over the schedule).
	Index int
	// Step is t_i.
	Step int
	// Round is the model round count when the event was applied.
	Round int
	Kind  fault.Kind
	Node  grid.NodeID

	// ARounds/FrameRounds/BRounds/CRounds are rounds from the event until
	// the last labeling / frame / identification / boundary activity
	// attributable to it (finalized when the next event fires or the run
	// ends).
	ARounds, FrameRounds, BRounds, CRounds int
	// ASteps is ceil(ARounds/λ) etc., the step-denominated stabilization
	// times the theorems use.
	ASteps, BSteps, CSteps int
	// Affected is the number of distinct nodes that changed status.
	Affected int
	// EMaxAfter is e_max measured after this event's constructions.
	EMaxAfter int
	// RecordsAfter is the information-store size after this event's
	// constructions (memory metric snapshot).
	RecordsAfter int

	finalized bool
}

// ContentionConfig configures the opt-in link/channel contention model:
// instead of every flight teleporting one hop per step, concurrent flights
// arbitrate for directed links (and downstream router buffers) and wait in
// place when they lose, which is what turns the engine into a
// load-measurement instrument (latency-throughput curves, saturation).
type ContentionConfig struct {
	// LinkRate is the service rate of every directed link: how many
	// messages may cross it per step. Values < 1 mean 1.
	LinkRate int
	// NodeCapacity caps the flights resident at one node (the router's
	// input-queue depth): a flight may not move onto a node already
	// holding that many, and injection at a full source is refused
	// (Admit). 0 means unbounded buffering.
	NodeCapacity int

	// GridlockWindow enables gridlock detection: K consecutive steps in
	// which no active flight moves or terminates, while the active
	// population is nonzero, latch the Gridlocked state (injections alone
	// are not progress — a frozen population stays frozen no matter how
	// many newcomers squeeze in behind it). The latch clears the first step
	// any flight makes progress again, so escape mechanisms can recover a
	// detected gridlock. 0 disables detection.
	GridlockWindow int

	// FlightTimeout kills a flight that has stalled in place for this many
	// consecutive steps (Flight.StallAge): the message is marked TimedOut,
	// a terminal state the next DetachDone harvests like any other, which
	// releases its buffer slot and — in a closed-loop workload — re-arms
	// the source's window slot for a retry. 0 disables timeouts.
	FlightTimeout int

	// Bubble enables bubble-style admission: injection requires the source
	// buffer to retain at least one free slot after the new flight is
	// admitted (Admit demands resident+1 < NodeCapacity). In-transit moves
	// are slot-neutral under the existing gate, so with every buffer keeping
	// a bubble, the buffer-cycle deadlock that finite capacities invite
	// cannot form by construction. Requires NodeCapacity >= 2 to admit
	// anything; ignored when NodeCapacity is unbounded.
	Bubble bool
}

// contention is the engine's per-step arbitration state. served/dirty
// implement an O(active links) per-step reset: served is indexed by
// directed link (node*2n + dir) and only the entries touched this step —
// recorded in dirty — are cleared, so a contention step allocates nothing
// and never scans the full link array.
//
// pending/lastPending are the LoadView side of the same scheme: every gate
// denial is counted against its directed link in pending, and at the start
// of each step the two arrays swap, so lastPending holds the previous
// step's stall counts — a stable, step-consistent queueing-pressure signal
// the Congested router reads through route.LoadView while the current
// step's denials accumulate separately.
type contention struct {
	enabled bool
	cfg     ContentionConfig

	served      []int32 // crossings granted per directed link this step
	dirty       []int32 // link indexes with served != 0
	pending     []int32 // traversal stalls per directed link this step
	pendingDty  []int32 // link indexes with pending != 0
	lastPending []int32 // previous step's stalls (the LinkPending view)
	lastDty     []int32 // link indexes with lastPending != 0
	resident    []int32 // active flights currently at each node
	numDirs     int32
	gateFn      route.Gate // bound method value, built once at enable

	// Gridlock-detector state (GridlockWindow > 0). zeroStreak counts
	// consecutive zero-progress steps with nonzero population; gridlocked
	// is the current latch. gridlockAt/recoverAt log the first episode:
	// the step the detector first fired and the first subsequent step with
	// progress (-1 = never).
	zeroStreak int
	gridlocked bool
	gridlockAt int
	recoverAt  int
}

// The engine is the contention model's load view: routers reach Resident
// and LinkPending through route.Context.Load.
var _ route.LoadView = (*Engine)(nil)

// Engine drives one simulation.
type Engine struct {
	Model  *core.Model //meshvet:keep configuration; Model.Reset is the caller's move (see Simulation.Reset)
	Lambda int         //meshvet:keep configuration, survives trials

	Schedule *fault.Schedule //meshvet:keep configuration; evIdx rewinds instead
	evIdx    int

	step int
	// flights holds the live flights as a dense prefix flights[:live] in
	// injection order — the age order the contention arbitration depends
	// on — followed by the terminated ones awaiting DetachDone (or
	// ClearFlights) in termination order. The commit loop compacts as it
	// goes, so nothing downstream skip-scans: the population is live, the
	// harvest is the tail.
	flights []*Flight
	live    int
	retired []*Flight //meshvet:keep scratch of one Step's compaction, emptied before it returns

	// ctx is the routing scratch: one context serves every flight in turn,
	// so no flight carries buffers of its own.
	ctx route.Context //meshvet:keep configuration (fabric, store, load view) plus call-scoped scratch

	// Events is the per-occurrence log (one record per applied schedule
	// event), held by value: Reset truncates it and a reused trial logs
	// into the capacity the last one left.
	Events []EventRecord

	// RoundsRun counts total information rounds executed.
	RoundsRun int

	// spareFlights is the free list fed by Reset/ClearFlights/DetachDone: a
	// reused trial re-injects messages without reallocating flight or
	// message objects. slab is the unused remainder of the last flight slab
	// and stacks that of its header arena: a slab miss is three allocations
	// for 64 flights, headers included.
	spareFlights []*Flight
	slab         []Flight    //meshvet:keep unused allocation, carries no trial state
	stacks       route.Arena //meshvet:keep the slab's unused header storage, carries no trial state

	// oracle computes EMaxAfter in finalizeLastEvent with reusable buffers
	// (a fault process applies events all run long; the centralized Extract
	// would allocate per event).
	oracle block.Oracle //meshvet:keep reusable compute buffers, overwritten per event

	ctn contention

	// probe, when non-nil, receives the per-step census assembled in the
	// commit loop (see probe.go); census is the accumulator between
	// flushes. Observation is read-only: no decision consults either.
	probe  Probe //meshvet:keep observer registration survives trials (SetProbe detaches)
	census StepCensus
}

// New builds an engine over a model with the given λ (rounds of information
// exchange per step; λ >= 1).
func New(md *core.Model, lambda int, sched *fault.Schedule) *Engine {
	if lambda < 1 {
		lambda = 1
	}
	if sched == nil {
		sched = &fault.Schedule{}
	}
	e := &Engine{Model: md, Lambda: lambda, Schedule: sched}
	// The engine is its flights' load view (route.LoadView): outside
	// contention mode both signals read zero, so load-aware routers
	// collapse to their load-oblivious baselines.
	e.ctx = route.Context{M: md.M, Store: md.Store, Load: e}
	return e
}

// StepCount returns the current step number.
func (e *Engine) StepCount() int { return e.step }

// EnableContention switches the engine into contention mode with the given
// configuration. Buffers are sized for the model's mesh on first enable
// and reused afterwards; enabling mid-run restarts the arbitration state
// with the current flights' positions.
func (e *Engine) EnableContention(cfg ContentionConfig) {
	if cfg.LinkRate < 1 {
		cfg.LinkRate = 1
	}
	c := &e.ctn
	c.cfg = cfg
	c.enabled = true
	n := e.Model.M.NumNodes()
	c.numDirs = int32(e.Model.M.Shape().NumDirs())
	if len(c.served) != n*int(c.numDirs) {
		c.served = make([]int32, n*int(c.numDirs))
		c.pending = make([]int32, n*int(c.numDirs))
		c.lastPending = make([]int32, n*int(c.numDirs))
	}
	if len(c.resident) != n {
		c.resident = make([]int32, n)
	}
	if c.gateFn == nil {
		c.gateFn = e.gate
	}
	e.resetContention()
	for i, f := range e.flights {
		f.resident = i < e.live
		if f.resident {
			c.resident[f.msg.Cur]++
		}
	}
}

// DisableContention returns the engine to the contention-free model,
// keeping the buffers for a later re-enable.
func (e *Engine) DisableContention() { e.ctn.enabled = false }

// ContentionEnabled reports whether the contention model is active.
func (e *Engine) ContentionEnabled() bool { return e.ctn.enabled }

// Resident returns the number of active flights currently at the node
// (contention mode only; 0 otherwise). Together with LinkPending it
// implements route.LoadView, the load signal congestion-aware routers
// consult.
func (e *Engine) Resident(id grid.NodeID) int {
	if !e.ctn.enabled {
		return 0
	}
	return int(e.ctn.resident[id])
}

// LinkPending returns how many traversals stalled on the directed link
// (from, dir) during the previous step — the link's queueing pressure
// (contention mode only; 0 otherwise). The one-step lag keeps the view
// consistent for every flight deciding within a step.
func (e *Engine) LinkPending(from grid.NodeID, dir grid.Dir) int {
	if !e.ctn.enabled {
		return 0
	}
	return int(e.ctn.lastPending[int32(from)*e.ctn.numDirs+int32(dir)])
}

// Admit reports whether a new flight may be injected at src under the
// configured node capacity. Without contention (or with unbounded
// capacity) every injection is admitted. With Bubble admission the source
// must keep one slot free after the injection, so the effective injection
// limit is NodeCapacity-1.
func (e *Engine) Admit(src grid.NodeID) bool {
	c := &e.ctn
	if !c.enabled || c.cfg.NodeCapacity <= 0 {
		return true
	}
	limit := c.cfg.NodeCapacity
	if c.cfg.Bubble {
		limit--
	}
	return int(c.resident[src]) < limit
}

// Gridlocked reports whether the zero-progress detector is currently
// latched: GridlockWindow consecutive steps saw a nonzero flight population
// make no progress at all. The latch clears as soon as any flight moves or
// terminates (e.g. a FlightTimeout kill), so under an escape mechanism a
// gridlock is a transient, not a verdict.
func (e *Engine) Gridlocked() bool { return e.ctn.enabled && e.ctn.gridlocked }

// GridlockStep returns the 1-based step at which the detector first fired
// in this run, or 0 if it never has. The first episode is latched across
// recoveries so time-to-recovery stays measurable after the fact.
func (e *Engine) GridlockStep() int {
	if !e.ctn.enabled || e.ctn.gridlockAt < 0 {
		return 0
	}
	return e.ctn.gridlockAt + 1
}

// GridlockRecovery returns the number of steps between the detector first
// firing and the first subsequent step with progress (time-to-recovery), or
// 0 if the detector never fired or the run never recovered.
func (e *Engine) GridlockRecovery() int {
	c := &e.ctn
	if !c.enabled || c.gridlockAt < 0 || c.recoverAt < 0 {
		return 0
	}
	return c.recoverAt - c.gridlockAt
}

// resetContention clears the arbitration counters without resizing.
func (e *Engine) resetContention() {
	c := &e.ctn
	for _, li := range c.dirty {
		c.served[li] = 0
	}
	c.dirty = c.dirty[:0]
	for _, li := range c.pendingDty {
		c.pending[li] = 0
	}
	c.pendingDty = c.pendingDty[:0]
	for _, li := range c.lastDty {
		c.lastPending[li] = 0
	}
	c.lastDty = c.lastDty[:0]
	for i := range c.resident {
		c.resident[i] = 0
	}
	c.zeroStreak = 0
	c.gridlocked = false
	c.gridlockAt = -1
	c.recoverAt = -1
}

// gate implements route.Gate: a traversal is granted while the link has
// service budget left this step and the destination router has buffer
// space. Flights are polled in injection order (the order e.flights
// preserves), so each directed link behaves as an age-ordered FIFO: the
// oldest waiting flight wins the next grant — deterministically.
//
//meshvet:noalloc
func (e *Engine) gate(from grid.NodeID, dir grid.Dir) bool {
	c := &e.ctn
	li := int32(from)*c.numDirs + int32(dir)
	if c.served[li] >= int32(c.cfg.LinkRate) {
		return c.deny(li)
	}
	if c.cfg.NodeCapacity > 0 {
		if to := e.Model.M.Neighbor(from, dir); to != grid.InvalidNode &&
			int(c.resident[to]) >= c.cfg.NodeCapacity {
			return c.deny(li)
		}
	}
	if c.served[li] == 0 {
		c.dirty = append(c.dirty, li)
	}
	c.served[li]++
	return true
}

// deny records one stalled traversal on the directed link for next step's
// LinkPending view and returns false (the gate's denial value).
//
//meshvet:noalloc
func (c *contention) deny(li int32) bool {
	if c.pending[li] == 0 {
		c.pendingDty = append(c.pendingDty, li)
	}
	c.pending[li]++
	return false
}

// Reset rewinds the engine to step 0 for a new trial on the same model: the
// schedule cursor returns to the first event, flights are recycled into the
// free list and the event log is truncated. The model itself is reset
// separately (core.Model.Reset); the Schedule is shared state the caller
// repopulates.
//
// Flights and the event log handed out before Reset are reused and MUST
// NOT be read afterwards — consume results before resetting.
func (e *Engine) Reset() {
	e.ClearFlights() // also clears contention residency/service counters
	e.Events = e.Events[:0]
	e.evIdx = 0
	e.step = 0
	e.RoundsRun = 0
	e.census = StepCensus{}
}

// ClearFlights retires every flight (recycling it for future Inject calls)
// without touching the schedule, the step counter, or the model. Benchmarks
// use it to re-route over a standing scenario.
func (e *Engine) ClearFlights() {
	e.spareFlights = append(e.spareFlights, e.flights...)
	e.flights, e.live = e.flights[:0], 0
	if e.ctn.enabled {
		e.resetContention()
	}
}

// DetachDone removes every terminated flight from the active list —
// preserving the injection order of the rest, which the contention
// arbitration depends on — calling fn (may be nil) for each before the
// flight is recycled into the free list. Load runs call it every step so
// the active list stays proportional to the in-flight population and
// delivered flights release their router buffer slot; the detached Flight
// must not be retained after fn returns.
//
//meshvet:noalloc
func (e *Engine) DetachDone(fn func(*Flight)) {
	for _, f := range e.flights[e.live:] {
		if e.ctn.enabled && f.resident {
			e.ctn.resident[f.msg.Cur]--
			f.resident = false
		}
		if fn != nil {
			fn(f)
		}
		e.spareFlights = append(e.spareFlights, f)
	}
	e.flights = e.flights[:e.live]
}

// Inject adds a routing message from src to dst under the given router,
// returning its flight. The message takes its first hop at the next Step.
// Under contention with a finite NodeCapacity, injection at a full source
// is an error: admitting it would overfill the router's input buffer and
// break the conservation invariant every gate decision relies on, so
// callers must check Admit first (the open-loop generators count a refusal
// as a drop).
func (e *Engine) Inject(src, dst grid.NodeID, r route.Router) (*Flight, error) {
	if src == dst {
		return nil, fmt.Errorf("engine: source equals destination")
	}
	if !e.Admit(src) {
		return nil, fmt.Errorf("engine: injection at node %d exceeds capacity %d (resident %d); check Admit before Inject",
			src, e.ctn.cfg.NodeCapacity, e.ctn.resident[src])
	}
	var f *Flight
	if n := len(e.spareFlights); n > 0 {
		f = e.spareFlights[n-1]
		e.spareFlights = e.spareFlights[:n-1]
	} else {
		if len(e.slab) == 0 {
			e.slab = make([]Flight, flightSlab)
			e.stacks = route.NewArena(e.Model.M.Shape(), flightSlab)
		}
		f, e.slab = &e.slab[0], e.slab[1:]
		f.Msg = &f.msg
		e.stacks.Carve(&f.msg)
	}
	// A recycled flight keeps the capacity of its header's path and
	// used-direction table.
	f.msg.Reset(src, dst)
	f.Router, f.StartStep, f.StallAge = r, e.step, 0
	f.resident = e.ctn.enabled
	if f.resident {
		e.ctn.resident[src]++
		if e.probe != nil {
			e.census.Injected++
		}
	}
	// The newcomer joins the end of the live prefix; a terminated flight
	// sitting there moves to the end of the tail.
	e.flights = append(e.flights, f)
	if n := len(e.flights) - 1; e.live < n {
		e.flights[e.live], e.flights[n] = f, e.flights[e.live]
	}
	e.live++
	return f, nil
}

// ResidencyCensus returns a copy of the per-node residency counters,
// regardless of whether contention is currently enabled — a testing and
// debugging aid for asserting that a finished load run released every
// counter (Resident reads zero once contention is disabled, which would
// mask stale state).
func (e *Engine) ResidencyCensus() []int {
	out := make([]int, len(e.ctn.resident))
	for i, r := range e.ctn.resident {
		out[i] = int(r)
	}
	return out
}

// Flights returns every attached flight: the live ones first, in injection
// order, then the terminated ones DetachDone has not harvested yet.
func (e *Engine) Flights() []*Flight { return e.flights }

// Step executes one step of Figure 7's model.
//
//meshvet:noalloc
func (e *Engine) Step() {
	// 1. Fault detection: apply the events scheduled for this step. The
	// change is observed by neighbors during the following rounds.
	for e.evIdx < len(e.Schedule.Events) && e.Schedule.Events[e.evIdx].Step <= e.step {
		ev := e.Schedule.Events[e.evIdx]
		e.applyEvent(ev)
		e.evIdx++
	}

	// 2. λ rounds of fault-information exchange and update.
	for i := 0; i < e.Lambda; i++ {
		e.Model.Round()
		e.RoundsRun++
	}

	// 3-5. Message reception, routing decision, message sending: one hop
	// per step for every live flight, polled in injection order. Under
	// contention each step opens with a fresh link-service budget, so links
	// are granted oldest-first; a flight that loses arbitration waits in
	// place and re-decides next step.
	c := &e.ctn
	var gate route.Gate
	timeout := 0
	if c.enabled {
		for _, li := range c.dirty {
			c.served[li] = 0
		}
		c.dirty = c.dirty[:0]
		// Rotate the stall counters: last step's denials become the
		// LinkPending view for this step's decisions, and the cleared array
		// starts accumulating this step's denials.
		for _, li := range c.lastDty {
			c.lastPending[li] = 0
		}
		c.lastPending, c.pending = c.pending, c.lastPending
		c.lastDty, c.pendingDty = c.pendingDty, c.lastDty[:0]
		gate, timeout = c.gateFn, c.cfg.FlightTimeout
	}
	probed := c.enabled && e.probe != nil
	// The commit loop doubles as the progress census and as the compaction
	// of the live prefix: progressed counts flights that moved or reached a
	// terminal state this step; survivors slide down to flights[:w] in
	// order and the newly terminated collect in retired, to be laid out
	// behind them.
	progressed, w := 0, 0
	retired := e.retired[:0]
	for _, f := range e.flights[:e.live] {
		msg := &f.msg
		before := msg.Cur
		if timeout > 0 && f.StallAge >= timeout {
			// Stalled in place past the timeout: kill the flight back to
			// its source. Residency is released by the next DetachDone
			// harvest.
			msg.TimedOut = true
		} else {
			route.AdvanceGated(&e.ctx, f.Router, msg, gate)
		}
		moved, done := msg.Cur != before, msg.Done()
		switch {
		case moved:
			if c.enabled && f.resident {
				c.resident[before]--
				c.resident[msg.Cur]++
			}
			f.StallAge = 0
		case !done:
			f.StallAge++
		}
		// A terminal transition without a move (timeout kill, unreachable
		// verdict, lost to a fault under its feet) is progress too: the
		// population shrank.
		if moved || done {
			progressed++
		}
		if probed {
			e.census.observe(msg, moved)
		}
		if done {
			retired = append(retired, f)
		} else {
			e.flights[w] = f
			w++
		}
	}
	copy(e.flights[w:], retired)
	e.live, e.retired = w, retired[:0]
	if c.enabled && c.cfg.GridlockWindow > 0 {
		if w > 0 && progressed == 0 {
			c.zeroStreak++
			if !c.gridlocked && c.zeroStreak >= c.cfg.GridlockWindow {
				c.gridlocked = true
				if c.gridlockAt < 0 {
					c.gridlockAt = e.step
				}
			}
		} else {
			c.zeroStreak = 0
			if c.gridlocked {
				c.gridlocked = false
				if c.recoverAt < 0 {
					c.recoverAt = e.step
				}
			}
		}
	}
	if probed {
		e.census.Steps++
		e.census.InFlight = w
		e.census.Gridlocked = c.gridlocked
	}
	e.step++
}

//meshvet:noalloc
func (e *Engine) applyEvent(ev fault.Event) {
	e.finalizeLastEvent()
	e.Events = append(e.Events, EventRecord{
		Index: len(e.Events) + 1,
		Step:  e.step,
		Round: e.Model.RoundCount(),
		Kind:  ev.Kind,
		Node:  ev.Node,
	})
	e.Model.Labeling.ResetAffected()
	switch ev.Kind {
	case fault.Fail:
		e.Model.ApplyFault(ev.Node)
		if e.probe != nil {
			e.census.Failed++
		}
	case fault.Recover:
		e.Model.ApplyRecovery(ev.Node)
		if e.probe != nil {
			e.census.Recovered++
		}
	}
}

// FinalizeEvents closes the accounting of the most recent event record
// against the model's current convergence state. Run and RunFlights call it
// automatically; callers that step the engine manually call it before
// reading Events.
func (e *Engine) FinalizeEvents() { e.finalizeLastEvent() }

// finalizeLastEvent attributes the convergence observed since the previous
// event to that event's record. It recomputes idempotently: calling it
// again after more rounds extends the attribution window of the most
// recent event (earlier events were closed when their successor fired).
func (e *Engine) finalizeLastEvent() {
	if len(e.Events) == 0 {
		return
	}
	rec := &e.Events[len(e.Events)-1]
	md := e.Model
	rec.ARounds = clampNonNeg(md.LastLabelRound - rec.Round)
	rec.FrameRounds = clampNonNeg(md.LastFrameRound - rec.Round)
	rec.BRounds = clampNonNeg(md.LastIdentRound - rec.Round)
	rec.CRounds = clampNonNeg(md.LastBoundaryRound - rec.Round)
	rec.ASteps = ceilDiv(rec.ARounds, e.Lambda)
	rec.BSteps = ceilDiv(rec.BRounds, e.Lambda)
	rec.CSteps = ceilDiv(rec.CRounds, e.Lambda)
	rec.Affected = md.Labeling.Affected()
	rec.EMaxAfter = e.oracle.MaxEdge(md.M)
	rec.RecordsAfter = md.Store.TotalRecords()
	rec.finalized = true
}

func clampNonNeg(x int) int {
	if x < 0 {
		return 0
	}
	return x
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// Done reports whether all scheduled events fired, all flights terminated,
// and the model is quiescent.
func (e *Engine) Done() bool {
	return e.evIdx >= len(e.Schedule.Events) && e.live == 0 && e.Model.Quiescent()
}

// StopReason says why Run or RunFlights stopped stepping. The distinction
// matters most for StopGridlocked: before gridlock detection, a deadlocked
// run spun to StopMaxSteps and was indistinguishable from one that merely
// needed a bigger budget.
type StopReason uint8

const (
	// StopDone: the run completed (Done for Run; all flights terminal for
	// RunFlights).
	StopDone StopReason = iota
	// StopMaxSteps: the step budget ran out with work still pending.
	StopMaxSteps
	// StopGridlocked: the contention engine's zero-progress detector
	// latched (GridlockWindow consecutive dead steps), so further stepping
	// cannot make progress without an escape mechanism.
	StopGridlocked
)

// String implements fmt.Stringer for StopReason.
func (s StopReason) String() string {
	switch s {
	case StopDone:
		return "done"
	case StopMaxSteps:
		return "max-steps"
	case StopGridlocked:
		return "gridlocked"
	}
	return fmt.Sprintf("StopReason(%d)", uint8(s))
}

// Run steps the engine until Done, gridlock detection, or maxSteps,
// finalizing the last event record. It returns the number of steps executed
// and why stepping stopped.
func (e *Engine) Run(maxSteps int) (int, StopReason) {
	start := e.step
	reason := StopMaxSteps
	for e.step-start < maxSteps {
		if e.Done() {
			reason = StopDone
			break
		}
		if e.Gridlocked() {
			reason = StopGridlocked
			break
		}
		e.Step()
	}
	if reason == StopMaxSteps && e.Done() {
		reason = StopDone // finished exactly as the budget ran out
	}
	e.finalizeLastEvent()
	return e.step - start, reason
}

// RunFlights steps the engine until every flight terminates, gridlock
// detection, or maxSteps, without waiting for model quiescence. It returns
// the steps executed and why stepping stopped.
func (e *Engine) RunFlights(maxSteps int) (int, StopReason) {
	start := e.step
	reason := StopMaxSteps
	for e.step-start < maxSteps {
		if e.live == 0 {
			reason = StopDone
			break
		}
		if e.Gridlocked() {
			reason = StopGridlocked
			break
		}
		e.Step()
	}
	if reason == StopMaxSteps && e.live == 0 {
		reason = StopDone // finished exactly as the budget ran out
	}
	e.finalizeLastEvent()
	return e.step - start, reason
}
