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
// samples it for its one flight in the stop rule it hands to Run.
//
// Contracts the rest of the stack builds on:
//
//   - One step model: every step arbitrates links and buffers, counts
//     residency and stalls and runs the gridlock detector under the
//     engine's ContentionConfig. The paper's free model is one setting of
//     it (unlimited link rate, unbounded buffers, no detector, timeout or
//     bubble), under which no link is ever denied.
//   - Determinism: flights are polled in injection order, so link
//     arbitration is an age-ordered FIFO and the step is one serial loop
//     with no goroutine-scheduling dependence.
//   - Reset: Reset rewinds the engine to step 0 recycling flights into a
//     free list and truncating the event log in place (results handed out
//     earlier must be consumed first); ClearFlights retires the flight
//     population only; DetachDone is the per-step harvest. Together with
//     the recycling in Inject they make the steady-state step 0 allocs/op
//     — asserted by the Test*AllocFree tests.
//   - Layout: a step is memory-bound, so per-flight state is laid out for
//     the loop that walks it. A Flight holds its message header by value
//     and is carved from the engine's flight chunks; the engine's
//     route.Tables carves the headers' path stacks, and a header that
//     strays borrows a used-direction table from it until it is recycled.
//     The flight list keeps the live flights as a dense prefix in injection
//     order (terminated ones behind it, until harvested), compacted by the
//     commit loop itself; routing scratch is the engine's (one
//     route.Context), never a flight's.
//   - One advance path: a flight's step is route.AdvanceGated's parts (Plan,
//     Message.Link, Message.Wait or route.Commit), run by the commit loop
//     with what is fixed for the step taken once — the (mesh, store) key
//     after the λ rounds, each flight's load-obliviousness at Inject — and
//     the gate called directly. A stalled flight whose kept decision holds
//     asks the gate again without entering its router.
//     TestStepMatchesAdvanceGated holds the loop to AdvanceGated calls.
//   - A wedged population is replayed, not polled: after a step that moved
//     and terminated none of its flights, all of them load-oblivious, the
//     next step gives those flights what polling them would (one more step,
//     wait and stall age each, and the last step's denials again, in order)
//     and polls only the newcomers behind them. It is exact because a
//     zero-progress step denied every flight at the gate (a grant is a
//     move), so it served no link and each denial was a full next node,
//     which empties only through a move out of it or a harvest. A
//     load-oblivious flight is therefore denied again while the (mesh,
//     store) key holds, no harvest has detached a flight, neither the
//     flights nor the configuration were reset and its stall age is below
//     FlightTimeout; newcomers only add residency. A fault event reaches
//     routing only through the key. A load-aware (Congested) flight decides
//     afresh from the residency around it and the last step's denials, so a
//     population holding one is polled.
package engine

import (
	"fmt"
	"math"

	"ndmesh/internal/block"
	"ndmesh/internal/chunk"
	"ndmesh/internal/core"
	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/route"
)

// Flight is one routing message in flight with its router. Flights are
// carved from chunks and hold their message header by value (Msg points at
// it), so the step loop walks one contiguous run of memory per flight.
// Routing scratch is not per flight — the engine owns the route.Context.
type Flight struct {
	// Msg is the flight's header; it points into the flight itself.
	// Router is nil once the flight is recycled, so the free list keeps no
	// router (an oracle's table) of a finished run.
	Msg    *route.Message
	Router route.Router
	// StartStep is the step the message was injected (the t of Table 1).
	StartStep int

	// StallAge counts the consecutive steps this flight has spent in place
	// without terminating: it increments every step the flight neither
	// moves nor reaches a terminal state, and resets to 0 on any move.
	// FlightTimeout kills a flight whose StallAge reaches the threshold; the
	// gridlock detector uses the same census in aggregate.
	StallAge int

	// oblivious caches route.LoadOblivious(Router), taken at Inject (which
	// sets Router): whether a stalled header may keep its decision while the
	// step's key holds.
	oblivious bool

	msg route.Message
}

// flightChunk is how many flights (and headers' path stacks) the first
// chunk holds; later chunks double (see internal/chunk).
const flightChunk = 64

// flightLists is the most room the flight lists start with: a flight per
// node up to 8,192 (64 KiB of pointers, a chunk's cap), so a large mesh
// does not hold megabytes of list before its first flight.
const flightLists = 8192

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

	// ARounds/BRounds/CRounds are rounds from the event until the last
	// labeling / identification / boundary activity attributable to it
	// (finalized when the next event fires or the run ends).
	ARounds, BRounds, CRounds int
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
}

// ContentionConfig configures the link/channel arbitration of the engine's
// step: concurrent flights arbitrate for directed links (and downstream
// router buffers) and wait in place when they lose, which is what turns the
// engine into a load-measurement instrument (latency-throughput curves,
// saturation). A new engine, and one after DisableContention, runs the free
// configuration: every link unlimited, every buffer unbounded, no detector,
// timeout or bubble, so every flight advances one hop per step.
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

// free is the configuration of the paper's contention-free model: no link
// ever runs out of service budget (served counts stay far below it) and no
// buffer fills, so the gate grants every traversal.
var free = ContentionConfig{LinkRate: math.MaxInt32}

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
//
// resident[n] counts the attached flights (live, or terminated and not yet
// harvested) whose current node is n: Inject adds a flight at its source,
// a move shifts it, DetachDone and ClearFlights release it.
type contention struct {
	cfg ContentionConfig

	served      []int32 // crossings granted per directed link this step
	dirty       []int32 // link indexes with served != 0
	pending     []int32 // traversal stalls per directed link this step
	pendingDty  []int32 // link indexes with pending != 0
	lastPending []int32 // previous step's stalls (the LinkPending view)
	lastDty     []int32 // link indexes with lastPending != 0
	resident    []int32 // attached flights currently at each node
	numDirs     int32

	// fz is what the last step leaves for the next to replay: its flights
	// when it moved and terminated none of them and all are load-oblivious
	// (see Step).
	fz frozen

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

// frozen describes the flights a zero-progress step left live, flights[:n]
// (n == 0: none), for the next step to replay (see the package comment).
type frozen struct {
	n        int
	key      uint64 // the step's route.StateKey
	maxStall int    // the largest StallAge among them
}

// The engine is its flights' load view: routers reach Resident and
// LinkPending through route.Context.Load.
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
	// ClearFlights). Each step lays its retirees, in poll order, right
	// behind the live prefix, in front of those of earlier steps, and Inject
	// moves the tail's first flight to its end; a harvester that skips steps
	// sees that order. The commit loop compacts as it goes, so nothing
	// downstream skip-scans: the population is live, the harvest is the
	// tail.
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

	// polled and replayed count the flight-steps the commit loop polled and
	// the ones Step replayed for a frozen prefix instead.
	polled, replayed int

	// spare recycles the flights Reset/ClearFlights/DetachDone retire: a
	// reused trial re-injects messages without reallocating flight or
	// message objects. A free-list miss carves a flight from its chunks,
	// which hold 64 flights, then 128, doubling up to 64 KiB. tables is
	// the header storage every flight shares: it carves their path stacks
	// from chunks sized the same way, so a chunk miss is two allocations for
	// a chunk of flights, path stacks included; a flight borrows a
	// used-direction table from it when it first strays and gives it back
	// when it is recycled.
	spare  chunk.Pool[Flight]
	tables route.Tables //meshvet:keep carved stacks and emptied tables, carry no trial state

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
	// A link index enters each dirty list at most once (when its counter
	// leaves 0), so n*dirs bounds every list and a step never grows one.
	// The flight lists start with room for a flight per node (up to
	// flightLists), so a load cell's population fills them without
	// doubling up from empty.
	n, dirs := md.M.NumNodes(), md.M.Shape().NumDirs()
	fl := min(n, flightLists)
	e := &Engine{
		Model: md, Lambda: lambda, Schedule: sched,
		flights: make([]*Flight, 0, fl),
		retired: make([]*Flight, 0, fl),
		spare:   chunk.NewPool[Flight](flightChunk, fl),
		ctn: contention{
			cfg:         free,
			served:      make([]int32, n*dirs),
			dirty:       make([]int32, 0, n*dirs),
			pending:     make([]int32, n*dirs),
			pendingDty:  make([]int32, 0, n*dirs),
			lastPending: make([]int32, n*dirs),
			lastDty:     make([]int32, 0, n*dirs),
			resident:    make([]int32, n),
			numDirs:     int32(dirs),
			gridlockAt:  -1,
			recoverAt:   -1,
		},
	}
	// The engine is its flights' load view (route.LoadView). Load-aware
	// routing is stall-gated, so under the free configuration, which denies
	// no link, it decides as its load-oblivious baseline does.
	e.ctx = route.Context{M: md.M, Store: md.Store, Load: e}
	e.tables = route.NewTables(md.M.Shape(), flightChunk)
	return e
}

// StepCount returns the current step number.
func (e *Engine) StepCount() int { return e.step }

// EnableContention installs the arbitration configuration of the engine's
// step (LinkRate < 1 means 1) and clears the link and detector state; the
// residency of attached flights carries over.
func (e *Engine) EnableContention(cfg ContentionConfig) {
	if cfg.LinkRate < 1 {
		cfg.LinkRate = 1
	}
	e.ctn.cfg = cfg
	e.ctn.clearLinks()
}

// DisableContention installs the free configuration and clears the link and
// detector state.
func (e *Engine) DisableContention() {
	e.ctn.cfg = free
	e.ctn.clearLinks()
}

// ContentionEnabled reports whether the configuration is not the free one.
func (e *Engine) ContentionEnabled() bool { return e.ctn.cfg != free }

// Resident returns the number of attached flights currently at the node.
// Together with LinkPending it implements route.LoadView, the load signal
// congestion-aware routers consult.
func (e *Engine) Resident(id grid.NodeID) int { return int(e.ctn.resident[id]) }

// LinkPending returns how many traversals stalled on the directed link
// (from, dir) during the previous step — the link's queueing pressure. The
// one-step lag keeps the view consistent for every flight deciding within a
// step.
func (e *Engine) LinkPending(from grid.NodeID, dir grid.Dir) int {
	return int(e.ctn.lastPending[int32(from)*e.ctn.numDirs+int32(dir)])
}

// Admit reports whether a new flight may be injected at src under the
// configured node capacity. With unbounded capacity every injection is
// admitted. With Bubble admission the source must keep one slot free after
// the injection, so the effective injection limit is NodeCapacity-1.
func (e *Engine) Admit(src grid.NodeID) bool {
	c := &e.ctn
	if c.cfg.NodeCapacity <= 0 {
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
func (e *Engine) Gridlocked() bool { return e.ctn.gridlocked }

// GridlockStep returns the 1-based step at which the detector first fired
// in this run, or 0 if it never has. The first episode is latched across
// recoveries so time-to-recovery stays measurable after the fact.
func (e *Engine) GridlockStep() int { return e.ctn.gridlockAt + 1 }

// GridlockRecovery returns the number of steps between the detector first
// firing and the first subsequent step with progress (time-to-recovery), or
// 0 if the detector never fired or the run never recovered.
func (e *Engine) GridlockRecovery() int {
	c := &e.ctn
	if c.recoverAt < 0 {
		return 0
	}
	return c.recoverAt - c.gridlockAt
}

// clearLinks clears the link service and stall counters, the replay state
// and the detector, touching only the entries the dirty lists name.
func (c *contention) clearLinks() {
	c.fz = frozen{}
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
	c.zeroStreak = 0
	c.gridlocked = false
	c.gridlockAt = -1
	c.recoverAt = -1
}

// gate is the engine's route.Gate, called directly by the commit loop: a
// traversal is granted while the link has service budget left this step and
// the destination router has buffer space. Flights are polled in
// injection order (the order e.flights preserves), so each directed link
// behaves as an age-ordered FIFO: the oldest waiting flight wins the next
// grant — deterministically.
//
//meshvet:noalloc TestContentionStepAllocFree
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
//meshvet:noalloc TestContentionStepAllocFree
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
	e.ClearFlights() // also releases residency and clears the link state
	// A rerun of one trial gets every flight and table it had the first time.
	e.spare.Restack()
	e.tables.Restack()
	e.Events = e.Events[:0]
	e.evIdx = 0
	e.step = 0
	e.RoundsRun = 0
	e.polled, e.replayed = 0, 0
	e.census = StepCensus{}
}

// ClearFlights retires every flight (recycling it for future Inject calls),
// releasing each one's residency, and clears the link, replay and detector
// state,
// without touching the schedule, the step counter, or the model. Benchmarks
// use it to re-route over a standing scenario.
func (e *Engine) ClearFlights() {
	for _, f := range e.flights {
		e.ctn.resident[f.msg.Cur]--
		f.msg.Release()
		f.Router = nil
	}
	e.spare.Put(e.flights...)
	e.flights, e.live = e.flights[:0], 0
	e.ctn.clearLinks()
}

// DetachDone removes every terminated flight from the active list —
// preserving the injection order of the rest, which the contention
// arbitration depends on — calling fn (may be nil) for each before the
// flight is recycled into the free list. Load runs call it every step so
// the active list stays proportional to the in-flight population and
// delivered flights release their router buffer slot; the detached Flight
// must not be retained after fn returns.
//
//meshvet:noalloc TestContentionStepAllocFree
func (e *Engine) DetachDone(fn func(*Flight)) {
	for _, f := range e.flights[e.live:] {
		e.ctn.resident[f.msg.Cur]--
		if fn != nil {
			fn(f)
		}
		f.msg.Release()
		f.Router = nil
		e.spare.Put(f)
	}
	if len(e.flights) > e.live {
		// A released slot may be the one a frozen flight waits for.
		e.ctn.fz.n = 0
	}
	e.flights = e.flights[:e.live]
}

// Inject adds a routing message from src to dst under the given router,
// returning its flight. The message takes its first hop at the next Step.
// With a finite NodeCapacity, injection at a full source is an error:
// admitting it would overfill the router's input buffer and break the
// conservation invariant every gate decision relies on, so callers must
// check Admit first (the open-loop generators count a refusal as a drop).
func (e *Engine) Inject(src, dst grid.NodeID, r route.Router) (*Flight, error) {
	if src == dst {
		return nil, fmt.Errorf("engine: source equals destination")
	}
	if !e.Admit(src) {
		return nil, fmt.Errorf("engine: injection at node %d exceeds capacity %d (resident %d); check Admit before Inject",
			src, e.ctn.cfg.NodeCapacity, e.ctn.resident[src])
	}
	f, fresh := e.spare.Get()
	if fresh {
		f.Msg = &f.msg
		e.tables.Carve(&f.msg)
	}
	// A recycled flight keeps the capacity of its header's path stack.
	f.msg.Reset(src, dst)
	f.Router, f.StartStep, f.StallAge = r, e.step, 0
	f.oblivious = route.LoadOblivious(r)
	e.ctn.resident[src]++
	if e.probe != nil {
		e.census.Injected++
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

// ResidencyCensus returns a copy of the per-node residency counters — a
// testing and debugging aid for asserting that a finished load run released
// every counter.
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
//meshvet:noalloc TestContentionStepAllocFree
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
	// per step for every live flight, polled in injection order. Each step
	// opens with a fresh link-service budget, so links are granted
	// oldest-first; a flight that loses arbitration waits in place and
	// re-decides next step — or, while the (mesh, store) key taken here
	// holds and its router is load-oblivious, asks the gate again for the
	// decision it kept, without entering the router.
	c := &e.ctn
	for _, li := range c.dirty {
		c.served[li] = 0
	}
	c.dirty = c.dirty[:0]
	// Rotate the stall counters: last step's denials become the LinkPending
	// view for this step's decisions, and the cleared array starts
	// accumulating this step's denials.
	for _, li := range c.lastDty {
		c.lastPending[li] = 0
	}
	c.lastPending, c.pending = c.pending, c.lastPending
	c.lastDty, c.pendingDty = c.pendingDty, c.lastDty[:0]
	timeout := c.cfg.FlightTimeout
	key := route.StateKey(&e.ctx)
	probed := e.probe != nil
	// A prefix the last step froze is replayed when nothing it reads has
	// changed; the commit loop polls the flights behind it.
	n := 0
	if c.fz.n > 0 {
		n = e.replay(key)
	}
	// The commit loop doubles as the progress census and as the compaction
	// of the live prefix: progressed counts flights that moved or reached a
	// terminal state this step; survivors slide down to flights[:w] in
	// order and the newly terminated collect in retired, to be laid out
	// behind them. Each flight's step is route.AdvanceGated's parts, with
	// the engine's gate called directly.
	progressed, w := 0, n
	retired := e.retired[:0]
	// Flights are recycled from a free list, so the live ones are not in
	// memory order and the hardware cannot prefetch them. The loop reads
	// each flight's position lookahead flights before its turn, ahead of
	// the branches in between, so the flight's cache miss overlaps their
	// work. The position is still current at its turn: a flight's step
	// moves that flight alone.
	const lookahead = 4
	live := e.flights[n:e.live]
	var pos [lookahead]grid.NodeID
	for j := range min(lookahead, len(live)) {
		pos[j] = live[j].msg.Cur
	}
	for i, f := range live {
		msg := &f.msg
		before := pos[i%lookahead]
		if j := i + lookahead; j < len(live) {
			pos[i%lookahead] = live[j].msg.Cur
		}
		if timeout > 0 && f.StallAge >= timeout {
			// Stalled in place past the timeout: kill the flight back to
			// its source. Residency is released by the next DetachDone
			// harvest.
			msg.TimedOut = true
		} else if d, ok := route.Plan(&e.ctx, f.Router, msg, key, f.oblivious); ok {
			if dir, crosses := msg.Link(d); crosses && !e.gate(before, dir) {
				msg.Wait()
			} else {
				route.Commit(&e.ctx, msg, d)
			}
		}
		moved, done := msg.Cur != before, msg.Done()
		switch {
		case moved:
			c.resident[before]--
			c.resident[msg.Cur]++
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
	e.polled += len(live)
	if w > 0 && progressed == 0 {
		e.freeze(n, key)
	} else {
		c.fz.n = 0
	}
	if c.cfg.GridlockWindow > 0 {
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

// replay steps the prefix the last step froze, flights[:fz.n], without
// polling it, when nothing it reads has changed (see the package comment),
// and returns its length; it returns 0, touching nothing, otherwise. Each
// flight gets what its poll would give it: route.Plan's step count,
// Message.Wait's wait and a stall age, and its denial, which replays the
// last step's denials in their order.
//
//meshvet:noalloc TestWedgedStepAllocFree
func (e *Engine) replay(key uint64) int {
	c := &e.ctn
	z := &c.fz
	if key != z.key || (c.cfg.FlightTimeout > 0 && z.maxStall >= c.cfg.FlightTimeout) {
		return 0
	}
	for _, f := range e.flights[:z.n] {
		f.msg.Steps++
		f.msg.Waits++
		f.StallAge++
	}
	for _, li := range c.lastDty {
		c.pending[li] = c.lastPending[li]
	}
	c.pendingDty = append(c.pendingDty, c.lastDty...)
	if e.probe != nil {
		e.census.Stalls += z.n
	}
	e.replayed += z.n
	return z.n
}

// freeze records the flights a step that moved and terminated none of them
// left live, flights[:live], for the next step to replay; n of them were
// replayed. It records none when one of them routes load-aware.
//
//meshvet:noalloc TestWedgedStepAllocFree
func (e *Engine) freeze(n int, key uint64) {
	z := &e.ctn.fz
	maxStall := 0
	if n > 0 {
		// A replay added one to every stall age it kept.
		maxStall = z.maxStall + 1
	}
	for _, f := range e.flights[n:e.live] {
		if !f.oblivious {
			z.n = 0
			return
		}
		maxStall = max(maxStall, f.StallAge)
	}
	z.n, z.key, z.maxStall = e.live, key, maxStall
}

//meshvet:noalloc TestFaultProcessStepAllocFree
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
// against the model's current convergence state. Run calls it after its
// last step; a caller that reads Events while the run is still converging
// calls it first.
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
	rec.BRounds = clampNonNeg(md.LastIdentRound - rec.Round)
	rec.CRounds = clampNonNeg(md.LastBoundaryRound - rec.Round)
	rec.ASteps = ceilDiv(rec.ARounds, e.Lambda)
	rec.BSteps = ceilDiv(rec.BRounds, e.Lambda)
	rec.CSteps = ceilDiv(rec.CRounds, e.Lambda)
	rec.Affected = md.Labeling.Affected()
	rec.EMaxAfter = e.oracle.MaxEdge(md.M)
	rec.RecordsAfter = md.Store.TotalRecords()
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
	return e.evIdx >= len(e.Schedule.Events) && e.Idle() && e.Model.Quiescent()
}

// Idle reports whether no flight is live.
func (e *Engine) Idle() bool { return e.live == 0 }

// Wedged reports whether the run can make no further progress: the
// zero-progress detector has latched and no FlightTimeout can break the
// buffer cycle. With a timeout the latch is transient (the next kill is
// progress), so such a run is never wedged.
func (e *Engine) Wedged() bool { return e.Gridlocked() && e.ctn.cfg.FlightTimeout == 0 }

// Run steps the engine at most maxSteps times, ending early when the run
// is Wedged or stop returns true. stop, when non-nil, is called exactly
// once before every step. Run finalizes the last event record and returns
// the number of steps executed.
func (e *Engine) Run(maxSteps int, stop func() bool) int {
	n := 0
	for ; n < maxSteps && !e.Wedged() && (stop == nil || !stop()); n++ {
		e.Step()
	}
	e.finalizeLastEvent()
	return n
}
