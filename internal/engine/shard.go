// Intra-step sharding: the contention-mode step partitioned across worker
// goroutines WITHIN one scenario, complementing internal/par's across-
// scenario fan-out. The live flight list is split into contiguous chunks
// (shards); each step's routing phase runs in two phases:
//
//  1. Propose (parallel): every shard walks its chunk of the live prefix
//     and precomputes the flights' routing decisions against the frozen
//     step-start state, with its own route.Context, into the flat proposal
//     array parallel to the flight list — the mesh, the record store and
//     the previous step's LinkPending view do not change during the routing
//     phase, so for a route.StepStable router the proposed decision is
//     exactly what a serial Decide at commit time would return.
//  2. Commit (serial, flight-age order): the same FIFO loop the serial
//     gate implements — link-service budgets, node-capacity checks and
//     residency updates are applied in injection order, consuming the
//     proposals. Flights whose router is not step-stable (Congested reads
//     mid-step residency, Oracle caches internal state) get no proposal
//     and are decided here serially.
//
// Because proposals equal serial decisions and the commit is the serial
// loop verbatim, the sharded step is byte-identical to the serial engine
// at every shard count — the internal/par determinism contract extended
// inside a step (pinned by TestShardedStepMatchesSerial and the E19/E20
// shard matrices). The barrier between the phases is the only
// synchronization; a steady-state step performs no allocation (persistent
// workers, pre-sized channels — TestShardedStepAllocFree).

package engine

import "ndmesh/internal/route"

// shardSet is the engine's intra-step sharding state: the per-shard routing
// scratch, this step's proposals, and the persistent worker goroutines that
// propose for shards 1..n-1 (shard 0 is proposed on the stepping goroutine
// between kick-off and the barrier).
type shardSet struct {
	n     int
	ctx   []route.Context // shard i's routing scratch
	props []proposal      // props[j] belongs to flights[j]; rewritten every step
	start []chan struct{} // one kick channel per worker (shard i+1)
	done  chan struct{}   // shared completion channel, capacity n-1
}

// proposal is the decision the parallel phase precomputed for one live
// flight; ok is false where the serial commit must decide for itself.
type proposal struct {
	d  route.Decision
	ok bool
}

// SetShards configures intra-step sharding for the contention-mode step:
// n > 1 partitions the live flights into n contiguous chunks and spawns
// n-1 persistent worker goroutines; n <= 1 restores the serial step and
// stops the workers. The step result is byte-identical at every shard
// count — sharding changes wall-clock, never output. Values above the node
// count are clamped. Callers that enable sharding own the teardown: call
// SetShards(1) before abandoning the engine, or the workers leak.
func (e *Engine) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	if nodes := e.Model.M.NumNodes(); n > nodes {
		n = nodes
	}
	s := &e.shards
	if n == s.n || (n == 1 && s.n == 0) {
		return
	}
	e.stopShardWorkers()
	s.n = n
	if n == 1 {
		return
	}
	s.ctx = make([]route.Context, n)
	for i := range s.ctx {
		s.ctx[i] = e.ctx
	}
	s.done = make(chan struct{}, n-1)
	s.start = make([]chan struct{}, n-1)
	for i := range s.start {
		ch := make(chan struct{}, 1)
		s.start[i] = ch
		shard := i + 1
		go func() {
			for range ch {
				e.proposeShard(shard)
				s.done <- struct{}{}
			}
		}()
	}
}

// Shards returns the configured shard count (1 = serial stepping).
func (e *Engine) Shards() int {
	if e.shards.n < 1 {
		return 1
	}
	return e.shards.n
}

// stopShardWorkers terminates the propose workers. Safe only between
// steps, when every worker is parked on its kick channel (SetShards and
// the step loop run on the same goroutine, so this always holds).
func (e *Engine) stopShardWorkers() {
	s := &e.shards
	for _, ch := range s.start {
		close(ch)
	}
	s.start, s.done = nil, nil
	s.n = 1
}

// propose runs the parallel phase of a sharded step: workers propose for
// shards 1..n-1 while the caller proposes shard 0, then the barrier —
// after which the returned array holds one proposal per live flight for
// the serial commit to consume. The channel handshakes establish the
// happens-before edges that make the flight list and the proposal array
// race-free.
//
//meshvet:noalloc
func (e *Engine) propose() []proposal {
	s := &e.shards
	if cap(s.props) < e.live {
		//meshvet:allow grows to the peak population; steady state reuses
		s.props = make([]proposal, e.live+e.live/2)
	}
	s.props = s.props[:e.live]
	for _, ch := range s.start {
		ch <- struct{}{}
	}
	e.proposeShard(0)
	for range s.start {
		<-s.done
	}
	return s.props
}

// proposeShard precomputes decisions for the step-stable flights in shard
// i's chunk of the live prefix. Flights of non-step-stable routers (and the
// defensive already-at-destination case, which the serial loop terminates
// before deciding) are left without a proposal, so the commit falls back to
// deciding them serially — identical either way.
//
//meshvet:noalloc
func (e *Engine) proposeShard(i int) {
	s := &e.shards
	lo, hi := i*e.live/s.n, (i+1)*e.live/s.n
	for j, f := range e.flights[lo:hi] {
		p := &s.props[lo+j]
		p.ok = route.StepStable(f.Router) && f.msg.Cur != f.msg.Dst
		if p.ok {
			p.d = f.Router.Decide(&s.ctx[i], &f.msg)
		}
	}
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
