package main

import (
	"fmt"
	"time"

	"ndmesh/internal/core"
	"ndmesh/internal/engine"
	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
	"ndmesh/internal/traffic"
)

// This file is the traced pass's instrument: the benchmark's own copy of
// the load loop the library runs inside loadPoint, built from the same
// public layer calls (mesh.New / core.New / engine.New, an Injector, the
// Collector) with a span around each. No code of the repository is touched
// to get a per-layer budget; the price is that the copy could drift, so
// every replica run is compared with the library's result for the same
// options (trace.replica_match) and a mismatch is reported, never hidden.

// Span names; the layer is the part before the dot.
const (
	spCell       = "bench.cell"
	spCoreReplay = "bench.core_replay"
	spCoreReset  = "core.reset"
	spEngReset   = "engine.reset"
	spFaultGen   = "fault.generate_process"
	spSrcBuild   = "traffic.source_build"
	spEnable     = "engine.enable_contention"
	spSrcStep    = "traffic.source_step"
	spInject     = "engine.inject"
	spEngStep    = "engine.step"
	spHarvest    = "engine.harvest"
	spResult     = "traffic.collector_result"
	spCleanup    = "engine.cleanup"
	spFreeStep   = "core.flight_free_step"
	spRequest    = "server.request"
	spFirstRow   = "server.first_row"
)

// span is one timed call. Count > 1 marks an aggregate of that many
// back-to-back calls under one parent (the per-injection spans of one
// source step), whose Dur is their summed time.
type span struct {
	Name   int32         `json:"name"`
	Parent int32         `json:"parent"` // index into the span list, -1 for a root
	ID     int32         `json:"id"`     // shared by every span of one cell or request
	Count  int32         `json:"count"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	names []string
	index map[string]int32
	spans []span
	cost  time.Duration // one clock read, discounted from aggregated leaf spans
}

func newTracer() *tracer {
	return &tracer{index: make(map[string]int32), spans: make([]span, 0, 1<<16), cost: clockCost()}
}

func (t *tracer) name(s string) int32 {
	if i, ok := t.index[s]; ok {
		return i
	}
	i := int32(len(t.names))
	t.names = append(t.names, s)
	t.index[s] = i
	return i
}

// open starts a span and returns its index; close ends it.
func (t *tracer) open(name, parent, id int32) int32 {
	t.spans = append(t.spans, span{Name: name, Parent: parent, ID: id, Count: 1, Start: now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(i int32) time.Duration {
	s := &t.spans[i]
	s.Dur = now() - s.Start
	return s.Dur
}

// total sums the durations and counts of every span with the name.
func (t *tracer) total(name string) (dur time.Duration, count int) {
	n, ok := t.index[name]
	if !ok {
		return 0, 0
	}
	for i := range t.spans {
		if t.spans[i].Name == n {
			dur += t.spans[i].Dur
			count += int(t.spans[i].Count)
		}
	}
	return dur, count
}

// mean is total's per-call average (0 when the span never ran).
func (t *tracer) mean(name string) time.Duration {
	dur, n := t.total(name)
	if n == 0 {
		return 0
	}
	return dur / time.Duration(n)
}

// attributed is the share of the root spans' wall covered by their direct
// children — what the traced pass can name; the rest is the root's self
// time (loop glue and the tracer's own clock reads).
func (t *tracer) attributed(root string) float64 {
	n, ok := t.index[root]
	if !ok {
		return 0
	}
	var wall, covered time.Duration
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == n {
			wall += s.Dur
		} else if s.Parent >= 0 && t.spans[s.Parent].Name == n {
			covered += s.Dur
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(covered) / float64(wall)
}

// stack is the replica's simulation: the layers NewSimulation wires,
// assembled directly so each is reachable for timing.
type stack struct {
	shape *grid.Shape
	fab   *mesh.Mesh
	model *core.Model
	eng   *engine.Engine
	sched *fault.Schedule
	used  bool
}

func newStack(dims []int, lambda int) (*stack, error) {
	shape, err := grid.NewShape(dims...)
	if err != nil {
		return nil, err
	}
	fab := mesh.New(shape)
	md := core.New(fab)
	sched := &fault.Schedule{}
	return &stack{shape: shape, fab: fab, model: md, eng: engine.New(md, lambda, sched), sched: sched}, nil
}

// census is the engine.Probe the replica attaches: it only adds up.
type census struct {
	moves, stalls, timeouts int
	inFlight, steps         int
}

func (c *census) ObserveStep(s engine.StepCensus) {
	c.moves += s.Moves
	c.stalls += s.Stalls
	c.timeouts += s.TimedOut
	c.inFlight += s.InFlight
	c.steps += s.Steps
}

// replica runs cells under the tracer and accumulates the counts the
// per-layer metrics are made of.
type replica struct {
	tr     *tracer
	stacks map[string]*stack
	census census

	offers, admitted    int
	flightSteps         int // sum over steps of the live population entering the step
	hops, backtracks    int
	deliveredHops, dist int
	events, faultRuns   int
	recordsPeak         int
	rounds, busyRounds  int
	busyRoundTime       time.Duration
	roundTime           time.Duration

	// Once the cell numbered probeCell is over, its fault state still
	// standing, the routers' Decide costs are measured on it.
	probeCell int32
	quick     bool
	decide    []sample
}

// newReplica builds a replica that probes the routers after probeCell.
func newReplica(tr *tracer, probeCell int, quick bool) *replica {
	return &replica{tr: tr, stacks: make(map[string]*stack), probeCell: int32(probeCell), quick: quick}
}

func (rp *replica) stack(dims []int, lambda int) (*stack, error) {
	key := fmt.Sprint(dims, lambda)
	if st, ok := rp.stacks[key]; ok {
		return st, nil
	}
	st, err := newStack(dims, lambda)
	if err != nil {
		return nil, err
	}
	rp.stacks[key] = st
	return st, nil
}

// rewind puts a used stack back to the fault-free state, as the library's
// simulation pool does before every cell, timing the two layers' resets.
func (rp *replica) rewind(st *stack, parent, id int32) {
	if !st.used {
		st.used = true
		return
	}
	s := rp.tr.open(rp.tr.name(spCoreReset), parent, id)
	st.model.Reset()
	rp.tr.close(s)
	s = rp.tr.open(rp.tr.name(spEngReset), parent, id)
	st.eng.Reset()
	rp.tr.close(s)
	st.sched.Events = st.sched.Events[:0]
}

// run executes one cell — the mirror of the library's loadPoint for live
// open-loop and closed-loop sources — and then replays its fault schedule
// on the flight-free engine and on the bare model.
func (rp *replica) run(c cell, r *rng.Source, id int32) (traffic.LoadPoint, error) {
	tr := rp.tr
	st, err := rp.stack(c.dims, c.lambda)
	if err != nil {
		return traffic.LoadPoint{}, err
	}
	root := tr.open(tr.name(spCell), -1, id)
	rp.rewind(st, root, id)
	total := c.ph.Total()

	if c.faultRate > 0 {
		// The fault process draws from a stream split off the cell's before
		// any traffic draw, exactly as the library orders it.
		fr := r.Split()
		popt := fault.ProcessOptions{
			Arrival: fault.Delay{Model: fault.DelayBernoulli, Rate: c.faultRate},
			Horizon: total - 1,
		}
		if c.faultRepair > 0 {
			popt.Repair = fault.Delay{Model: fault.DelayBernoulli, Rate: 1 / c.faultRepair}
		}
		s := tr.open(tr.name(spFaultGen), root, id)
		sched, err := fault.GenerateProcess(st.shape, popt, fr)
		tr.close(s)
		if err != nil {
			return traffic.LoadPoint{}, err
		}
		st.sched.Events = append(st.sched.Events[:0], sched.Events...)
		rp.events += len(sched.Events)
		rp.faultRuns++
	}
	rtr, err := route.ByName(c.router)
	if err != nil {
		return traffic.LoadPoint{}, err
	}

	s := tr.open(tr.name(spSrcBuild), root, id)
	pat, err := traffic.ByName(st.shape, c.pattern)
	if err != nil {
		return traffic.LoadPoint{}, err
	}
	var src traffic.Injector
	var cl *traffic.ClosedLoop
	var rq *traffic.RetrySource
	if c.window > 0 {
		cl = traffic.NewClosedLoop(st.shape, pat, c.window, r)
		src = cl
	} else {
		proc, err := traffic.ProcessByName("bernoulli")
		if err != nil {
			return traffic.LoadPoint{}, err
		}
		src = traffic.NewGenerator(st.shape, pat, proc, c.rate, r)
		if c.ctn.FlightTimeout > 0 {
			rq = traffic.NewRetrySource(src, st.shape.NumNodes(), c.backoff, r)
			src = rq
		}
	}
	tr.close(s)

	eng := st.eng
	s = tr.open(tr.name(spEnable), root, id)
	eng.EnableContention(c.ctn)
	tr.close(s)
	if cl != nil && c.ctn.FlightTimeout > 0 {
		cl.ConfigureRetry(c.backoff)
	}
	eng.SetProbe(&rp.census)
	ph := c.ph
	var col traffic.Collector
	col.Reset(ph)

	closed := cl != nil
	step := 0
	var injectErr error
	var injectDur time.Duration
	injects := 0
	emit := func(from, to grid.NodeID) bool {
		if injectErr != nil {
			return false
		}
		rp.offers++
		if st.fab.Status(from) != mesh.Enabled || !eng.Admit(from) {
			if !closed {
				col.Offer(step, false)
			}
			return false
		}
		t0 := now()
		_, err := eng.Inject(from, to, rtr)
		injectDur += now() - t0
		injects++
		if err != nil {
			injectErr = err
			return false
		}
		rp.admitted++
		col.Offer(step, true)
		return true
	}
	harvest := func(fl *engine.Flight) {
		oc := traffic.Unfinished
		switch {
		case fl.Msg.Arrived:
			oc = traffic.Delivered
			rp.deliveredHops += fl.Msg.Hops
			rp.dist += st.shape.Distance(fl.Msg.Src, fl.Msg.Dst)
		case fl.Msg.Unreachable:
			oc = traffic.Unreachable
		case fl.Msg.Lost:
			oc = traffic.Lost
		case fl.Msg.TimedOut:
			oc = traffic.TimedOut
		}
		rp.hops += fl.Msg.Hops
		rp.backtracks += fl.Msg.Backtracks
		switch {
		case cl != nil && oc == traffic.TimedOut:
			cl.Timeout(fl.Msg.Src)
			col.Retry(fl.StartStep)
			eng.NoteRetried()
		case cl != nil:
			cl.Release(fl.Msg.Src)
		case rq != nil && oc == traffic.TimedOut:
			rq.Timeout(fl.Msg.Src, fl.Msg.Dst, ph.Measured(fl.StartStep))
			col.Retry(fl.StartStep)
			eng.NoteRetried()
		case rq != nil:
			rq.Settle(fl.Msg.Src)
		}
		col.Finish(fl.StartStep, fl.Msg.Steps, oc)
	}

	nSrc, nInj, nStep, nHarvest := tr.name(spSrcStep), tr.name(spInject), tr.name(spEngStep), tr.name(spHarvest)
	for ; step < total; step++ {
		if step < ph.InjectUntil() {
			before, n0 := injectDur, injects
			s := tr.open(nSrc, root, id)
			src.Step(emit)
			tr.close(s)
			if injectErr != nil {
				return traffic.LoadPoint{}, injectErr
			}
			if n := injects - n0; n > 0 {
				// One aggregate child for the step's injections, net of the
				// two clock reads each one was bracketed by.
				d := max(injectDur-before-time.Duration(n)*tr.cost, 0)
				tr.spans = append(tr.spans, span{Name: nInj, Parent: s, ID: id, Count: int32(n),
					Start: tr.spans[s].Start, Dur: d})
			}
		}
		rp.flightSteps += len(eng.Flights())
		s := tr.open(nStep, root, id)
		eng.Step()
		tr.close(s)
		s = tr.open(nHarvest, root, id)
		eng.DetachDone(harvest)
		tr.close(s)
		eng.FlushCensus()
		if eng.Gridlocked() && c.ctn.FlightTimeout == 0 {
			break
		}
	}
	for _, fl := range eng.Flights() {
		if !fl.Msg.Done() {
			col.Finish(fl.StartStep, fl.Msg.Steps, traffic.Unfinished)
		}
	}
	s = tr.open(tr.name(spResult), root, id)
	rate := c.rate
	if closed {
		rate = 0
	}
	pt := col.Result(rate, st.shape.NumNodes())
	tr.close(s)
	pt.Gridlocked = eng.Gridlocked()
	pt.GridlockStep = eng.GridlockStep()
	pt.RecoverySteps = eng.GridlockRecovery()
	if rq != nil {
		pt.RetryDropped = rq.PendingMeasured()
	}
	for _, rec := range eng.Events {
		switch rec.Kind {
		case fault.Fail:
			pt.Failed++
		case fault.Recover:
			pt.Recovered++
		}
	}
	s = tr.open(tr.name(spCleanup), root, id)
	eng.SetProbe(nil)
	eng.ClearFlights()
	eng.DisableContention()
	tr.close(s)
	tr.close(root)

	// Outside the cell's span: the model still holds the cell's end state
	// (cleanup only empties the engine), which replayCore then rewinds.
	if id == rp.probeCell {
		rp.decide = decideCosts(st, rp.quick)
	}
	rp.replayCore(st, c, id)
	return pt, nil
}

// replayCore re-runs the cell's fault schedule without traffic, twice. On
// the engine, where a step is then Figure 7's phases 1-2 alone (fault
// detection and λ information rounds): its time is what the information
// plane costs inside engine.Step. And on the bare model, to time
// Model.Round by whether the model had work to do.
func (rp *replica) replayCore(st *stack, c cell, id int32) {
	tr := rp.tr
	events := append([]fault.Event(nil), st.sched.Events...)
	total := c.ph.Total()
	root := tr.open(tr.name(spCoreReplay), -1, id)
	rp.rewind(st, root, id)
	st.sched.Events = append(st.sched.Events[:0], events...)
	st.eng.EnableContention(c.ctn)
	nFree := tr.name(spFreeStep)
	for step := 0; step < total; step++ {
		s := tr.open(nFree, root, id)
		st.eng.Step()
		tr.close(s)
		rp.recordsPeak = max(rp.recordsPeak, st.model.Store.TotalRecords())
	}
	st.eng.DisableContention()

	st.model.Reset()
	st.eng.Reset()
	st.sched.Events = st.sched.Events[:0]
	next := 0
	for step := 0; step < total; step++ {
		for ; next < len(events) && events[next].Step <= step; next++ {
			switch events[next].Kind {
			case fault.Fail:
				st.model.ApplyFault(events[next].Node)
			case fault.Recover:
				st.model.ApplyRecovery(events[next].Node)
			}
		}
		for i := 0; i < c.lambda; i++ {
			busy := !st.model.Quiescent()
			t0 := now()
			st.model.Round()
			d := now() - t0
			rp.rounds++
			rp.roundTime += d
			if busy {
				rp.busyRounds++
				rp.busyRoundTime += d
			}
		}
	}
	tr.close(root)
}

// loopTime is what the cells run so far spent in the load loop proper —
// injections, engine steps and harvests — net of one clock read per span
// (the aggregated injection spans are already net).
func (rp *replica) loopTime() time.Duration {
	inject, _ := rp.tr.total(spInject)
	step, steps := rp.tr.total(spEngStep)
	harvest, harvests := rp.tr.total(spHarvest)
	return inject + step + harvest - time.Duration(steps+harvests)*rp.tr.cost
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics derives the engine-side per-layer metrics from the spans and
// counts of the cells run so far.
func (rp *replica) metrics() []sample {
	tr := rp.tr
	stepDur, steps := tr.total(spEngStep)
	freeDur, freeSteps := tr.total(spFreeStep)
	injDur, injects := tr.total(spInject)
	srcDur, srcSteps := tr.total(spSrcStep)
	engStep := ratio(micros(stepDur), float64(steps))
	coreStep := ratio(micros(freeDur), float64(freeSteps))
	out := []sample{
		{Metric: "core.step_us", Value: coreStep},
		{Metric: "core.step_share", Value: ratio(float64(freeDur), float64(stepDur))},
		{Metric: "core.round_us", Value: ratio(micros(rp.busyRoundTime), float64(rp.busyRounds))},
		{Metric: "core.busy_round_share", Value: ratio(float64(rp.busyRounds), float64(rp.rounds))},
		{Metric: "core.reset_us", Value: micros(tr.mean(spCoreReset))},
		{Metric: "core.info_records_peak", Value: float64(rp.recordsPeak)},

		{Metric: "route.backtrack_share", Value: ratio(float64(rp.backtracks), float64(rp.hops))},
		{Metric: "route.detour_ratio", Value: ratio(float64(rp.deliveredHops), float64(rp.dist))},

		{Metric: "engine.step_us", Value: engStep},
		{Metric: "engine.step_ns_per_flight", Value: ratio(float64(stepDur), float64(rp.flightSteps))},
		{Metric: "engine.route_commit_us", Value: engStep - coreStep},
		{Metric: "engine.inject_ns", Value: ratio(float64(injDur), float64(injects))},
		{Metric: "engine.harvest_us", Value: micros(tr.mean(spHarvest))},
		{Metric: "engine.reset_us", Value: micros(tr.mean(spEngReset))},
		{Metric: "engine.moves", Value: float64(rp.census.moves)},
		{Metric: "engine.stalls", Value: float64(rp.census.stalls)},
		{Metric: "engine.move_share", Value: ratio(float64(rp.census.moves), float64(rp.census.moves+rp.census.stalls))},
		{Metric: "engine.timeouts", Value: float64(rp.census.timeouts)},
		{Metric: "engine.in_flight_mean", Value: ratio(float64(rp.census.inFlight), float64(rp.census.steps))},

		// The source's self time: its step span minus the injections the
		// emit callback made inside it.
		{Metric: "traffic.source_step_us", Value: ratio(micros(srcDur-injDur), float64(srcSteps))},
		{Metric: "traffic.offers", Value: float64(rp.offers)},
		{Metric: "traffic.admit_share", Value: ratio(float64(rp.admitted), float64(rp.offers))},
		{Metric: "traffic.collector_result_us", Value: micros(tr.mean(spResult))},

		{Metric: "trace.attributed_share", Value: tr.attributed(spCell)},
	}
	out = append(out, rp.decide...)
	if rp.faultRuns > 0 {
		out = append(out,
			sample{Metric: "fault.generate_process_us", Value: micros(tr.mean(spFaultGen))},
			sample{Metric: "fault.events_per_trial", Value: ratio(float64(rp.events), float64(rp.faultRuns))})
	}
	return out
}
