// Package ndmesh is a from-scratch reproduction of
//
//	Zhen Jiang and Jie Wu, "A Limited-Global Fault Information Model for
//	Dynamic Routing in n-D Meshes", Proc. 18th IEEE International Parallel
//	and Distributed Processing Symposium (IPDPS), 2004.
//
// It provides a k-ary n-dimensional mesh simulator in which faults occur
// and recover dynamically while messages are being routed. Fault
// information is summarized into disjoint rectangular faulty blocks
// (Definition 1/4, Algorithm 1), identified by a distributed hop-by-hop
// process (Algorithm 2), and distributed only to the nodes on the blocks'
// frames and boundary walls — the limited-global information model. The
// fault-information-based PCS router (Algorithm 3) consults exactly this
// node-local information, and three baselines (global-information oracle,
// information-free backtracking, dimension-order) calibrate it.
//
// The Simulation type is the high-level entry point:
//
//	sim, _ := ndmesh.NewSimulation(ndmesh.Config{Dims: []int{16, 16}})
//	sim.ScheduleFault(2, ndmesh.C(7, 7))
//	res, _ := sim.Route(ndmesh.C(1, 1), ndmesh.C(14, 14), "limited")
//	fmt.Println(res.Arrived, res.Hops)
//
// Packages under internal/ hold the substrates: grid geometry, the mesh
// fabric, the labeling/identification/boundary protocols, the execution
// engine, the routers, and the detour-bound theory. The experiment tables
// (E11-E23; README.md "Command-line tools" lists them) are regenerated by
// the functions in experiments.go, the benchmarks in bench_test.go, and
// cmd/sweep.
package ndmesh

import (
	"fmt"

	"ndmesh/internal/block"
	"ndmesh/internal/core"
	"ndmesh/internal/engine"
	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
	"ndmesh/internal/safety"
	"ndmesh/internal/viz"
)

// Coord is an n-dimensional node address (u_1, ..., u_n).
type Coord = grid.Coord

// Box is a closed axis-aligned box of nodes; faulty blocks are boxes.
type Box = grid.Box

// NodeID is a linearized node index.
type NodeID = grid.NodeID

// C builds a Coord from components.
func C(components ...int) Coord { return Coord(components) }

// Config configures a simulation.
type Config struct {
	// Dims are the per-dimension radices; Dims = [k, k, ..., k] (n times)
	// is the paper's k-ary n-D mesh. Required.
	Dims []int
	// Lambda is the number of information rounds per step (λ of Table 1);
	// default 1.
	Lambda int
}

// Simulation is a dynamic n-D mesh with the limited-global information
// model running on it.
type Simulation struct {
	key    simKey      //meshvet:keep the (shape, λ) an EnginePool files it under, immutable
	shape  *grid.Shape //meshvet:keep topology, immutable after NewSimulation
	mesh   *mesh.Mesh  //meshvet:keep mesh statuses reset through model.Reset
	model  *core.Model
	engine *engine.Engine
	sched  *fault.Schedule
	// load is the load cells' workload (saturation.go): its collector, rng
	// streams, sources, patterns and fault-placement scratch. Each cell
	// rewinds it (newLoadRun) and Reset drops the cell's wiring, so the
	// buffers keep their capacity across the cells of a pool.
	load loadRun
	// oracle is the "oracle" router of every run on the simulation (see
	// router): its table is keyed on the mesh's version, which every Reset
	// advances, so no field of an earlier run is read again, and a warm
	// cell refills the storage the first one allocated.
	oracle route.Oracle //meshvet:keep its fields are dropped when the mesh version moves, which Reset does
}

// NewSimulation builds a fault-free simulation of the configured shape.
func NewSimulation(cfg Config) (*Simulation, error) {
	shape, err := grid.NewShape(cfg.Dims...)
	if err != nil {
		return nil, err
	}
	if cfg.Lambda < 1 {
		cfg.Lambda = 1
	}
	m := mesh.New(shape)
	md := core.New(m)
	sched := &fault.Schedule{}
	eng := engine.New(md, cfg.Lambda, sched)
	return &Simulation{key: newSimKey(cfg.Dims, cfg.Lambda), shape: shape, mesh: m, model: md, engine: eng, sched: sched}, nil
}

// MustSimulation is NewSimulation that panics on error (examples, tests).
func MustSimulation(cfg Config) *Simulation {
	s, err := NewSimulation(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Reset rewinds the simulation to the fault-free state NewSimulation
// produces — mesh statuses, all four protocol layers, the information
// store, the engine clock, flights, the free contention configuration with
// no probe, the fault schedule and no load cell's router, source, hooks or
// trace — while keeping every internal buffer (less a retry queue grown
// past the node count), so a sweep can restart a trial without
// reallocating. Results (RouteResult, Events) must be consumed before the
// reset: flights are recycled and the event log is overwritten.
func (s *Simulation) Reset() {
	s.model.Reset()
	s.engine.Reset()
	s.engine.DisableContention()
	s.engine.SetProbe(nil)
	s.sched.Events = s.sched.Events[:0]
	s.load.loadCell = loadCell{}
	s.load.retry.Trim()
	s.load.play.Reset(nil)
	s.load.rec.Reset(nil, nil)
}

// Dims returns the mesh dimensions.
func (s *Simulation) Dims() []int { return s.shape.Radices() }

// NumNodes returns the node count N.
func (s *Simulation) NumNodes() int { return s.shape.NumNodes() }

// Step returns the current step number.
func (s *Simulation) Step() int { return s.engine.StepCount() }

// NodeAt returns the node id at the coordinate.
func (s *Simulation) NodeAt(c Coord) (NodeID, error) {
	if !s.shape.Contains(c) {
		// c.String(), not c: boxing the slice would make every caller's
		// coordinate escape to the heap, on the success path too.
		return grid.InvalidNode, fmt.Errorf("ndmesh: coordinate %s outside %v", c.String(), s.shape)
	}
	return s.shape.Index(c), nil
}

// CoordOf returns the coordinate of a node id.
func (s *Simulation) CoordOf(id NodeID) Coord { return s.shape.CoordOf(id) }

// ScheduleFault schedules fault occurrence at the given step.
func (s *Simulation) ScheduleFault(step int, c Coord) error {
	id, err := s.NodeAt(c)
	if err != nil {
		return err
	}
	s.sched.Events = append(s.sched.Events, fault.Event{Step: step, Node: id, Kind: fault.Fail})
	s.sched.Sort()
	return nil
}

// ScheduleRecovery schedules a recovery (rule 5) at the given step.
func (s *Simulation) ScheduleRecovery(step int, c Coord) error {
	id, err := s.NodeAt(c)
	if err != nil {
		return err
	}
	s.sched.Events = append(s.sched.Events, fault.Event{Step: step, Node: id, Kind: fault.Recover})
	s.sched.Sort()
	return nil
}

// ScheduleLinkFault schedules a link fault between two neighboring nodes.
// Per the paper's model, link faults are treated as node faults: the
// endpoint farther from the outermost surface is the one that fails.
func (s *Simulation) ScheduleLinkFault(step int, a, b Coord) error {
	ida, err := s.NodeAt(a)
	if err != nil {
		return err
	}
	idb, err := s.NodeAt(b)
	if err != nil {
		return err
	}
	victim, err := fault.LinkFault(s.shape, ida, idb)
	if err != nil {
		return err
	}
	s.sched.Events = append(s.sched.Events, fault.Event{Step: step, Node: victim, Kind: fault.Fail})
	s.sched.Sort()
	return nil
}

// FaultPlan configures random fault-schedule generation.
type FaultPlan struct {
	// Faults is F, the number of fault occurrences.
	Faults int
	// Interval is d_i in steps; Start is t_1.
	Interval, Start int
	// RecoverAfter > 0 schedules a recovery that many steps after each
	// fault (rule 5 events).
	RecoverAfter int
	// Clustered grows one block instead of scattering faults; MinSpacing
	// keeps scattered faults at least this Chebyshev distance apart
	// (>= 4 keeps blocks and their frames disjoint).
	Clustered  bool
	MinSpacing int
	// Avoid lists coordinates that must not fail (source, destination);
	// AvoidRadius keeps faults at least that far from them.
	Avoid       []Coord
	AvoidRadius int
	// Seed drives the deterministic generator.
	Seed uint64
}

// GenerateFaults appends a randomly generated schedule to the simulation.
// Faults never land on the outermost surface (the paper's model
// assumption).
func (s *Simulation) GenerateFaults(p FaultPlan) error {
	var exclude []grid.NodeID
	for _, c := range p.Avoid {
		id, err := s.NodeAt(c)
		if err != nil {
			return err
		}
		exclude = append(exclude, id)
	}
	if p.MinSpacing == 0 && !p.Clustered {
		p.MinSpacing = 4
	}
	radius := p.AvoidRadius
	if radius == 0 {
		radius = 1
	}
	sched, err := fault.Generate(s.shape, p.Faults, fault.Options{
		Interval:      p.Interval,
		Start:         p.Start,
		Exclude:       exclude,
		ExcludeRadius: radius,
		MinSpacing:    p.MinSpacing,
		Clustered:     p.Clustered,
		RecoverAfter:  p.RecoverAfter,
	}, rng.New(p.Seed))
	if err != nil {
		return err
	}
	s.sched.Events = append(s.sched.Events, sched.Events...)
	s.sched.Sort()
	return nil
}

// FailNow applies a fault immediately (before the next step).
func (s *Simulation) FailNow(c Coord) error {
	id, err := s.NodeAt(c)
	if err != nil {
		return err
	}
	s.model.ApplyFault(id)
	return nil
}

// RecoverNow applies a recovery immediately.
func (s *Simulation) RecoverNow(c Coord) error {
	id, err := s.NodeAt(c)
	if err != nil {
		return err
	}
	s.model.ApplyRecovery(id)
	return nil
}

// Stabilize runs information rounds until every construction reaches its
// fixed point, returning the number of rounds. Use it to set up static
// scenarios; dynamic scenarios just Run steps.
func (s *Simulation) Stabilize() int { return s.model.Stabilize() }

// StabilizeRounds runs at most n information rounds, stopping early at
// quiescence; it returns the rounds actually executed. Used by the
// visualizer to animate the constructions.
func (s *Simulation) StabilizeRounds(n int) int {
	for i := 0; i < n; i++ {
		if s.model.Quiescent() {
			return i
		}
		s.model.Round()
	}
	return n
}

// RunSteps executes n steps of the Figure 7 model.
func (s *Simulation) RunSteps(n int) { s.engine.Run(n, nil) }

// Drain runs the engine until the whole fault schedule has fired, all
// in-flight messages have terminated and every information construction is
// quiescent. It returns the number of steps executed.
func (s *Simulation) Drain() int {
	return s.engine.Run(s.sched.LastStep()+32*s.shape.Diameter()+64, s.engine.Done)
}

// RouteResult summarizes a completed routing.
type RouteResult struct {
	Arrived     bool
	Unreachable bool
	Lost        bool
	// Hops counts link traversals, Backtracks the backward ones, Steps the
	// decision steps. D0 is the source-destination distance at injection;
	// ExtraHops = Hops - D0 (>= 0 measures the detour cost).
	Hops, Backtracks, Steps, D0, ExtraHops int
}

// Route injects a message and runs the simulation until it terminates (or
// maxSteps = 16 * diameter + schedule horizon). Router names: "limited",
// "congested", "blind", "oracle", "dor".
func (s *Simulation) Route(src, dst Coord, router string) (RouteResult, error) {
	srcID, err := s.NodeAt(src)
	if err != nil {
		return RouteResult{}, err
	}
	dstID, err := s.NodeAt(dst)
	if err != nil {
		return RouteResult{}, err
	}
	return s.routeIDs(srcID, dstID, router)
}

// router resolves a router name for a run on s: the simulation's own
// oracle for "oracle", route.ByName's stateless value for every other name.
func (s *Simulation) router(name string) (route.Router, error) {
	if name == "oracle" {
		return &s.oracle, nil
	}
	return route.ByName(name)
}

// routeIDs is Route on node ids (the sweeps draw ids, not coordinates).
func (s *Simulation) routeIDs(src, dst NodeID, router string) (RouteResult, error) {
	r, err := s.router(router)
	if err != nil {
		return RouteResult{}, err
	}
	fl, err := s.engine.Inject(src, dst, r)
	if err != nil {
		return RouteResult{}, err
	}
	s.engine.Run(s.flightBudget(), s.engine.Idle)
	return s.result(fl), nil
}

// flightBudget is the step budget of a run-until-terminated: the schedule
// horizon plus room for any detour the routers can take.
func (s *Simulation) flightBudget() int {
	return 16*s.shape.Diameter() + s.sched.LastStep() + 4*s.shape.NumNodes()
}

func (s *Simulation) result(fl *engine.Flight) RouteResult {
	msg := fl.Msg
	d0 := s.shape.Distance(msg.Src, msg.Dst)
	return RouteResult{
		Arrived:     msg.Arrived,
		Unreachable: msg.Unreachable,
		Lost:        msg.Lost,
		Hops:        msg.Hops,
		Backtracks:  msg.Backtracks,
		Steps:       msg.Steps,
		D0:          d0,
		ExtraHops:   max(msg.Hops-d0, 0),
	}
}

// Blocks returns the current stabilized faulty blocks (oracle view).
func (s *Simulation) Blocks() []Box {
	bs := block.Extract(s.mesh)
	out := make([]Box, len(bs))
	for i, b := range bs {
		out[i] = b.Box
	}
	return out
}

// SourceSafe applies Theorem 2's classification to (src, dst) under the
// current blocks.
func (s *Simulation) SourceSafe(src, dst Coord) bool {
	return safety.SourceSafe(s.Blocks(), src, dst)
}

// ClassifySource applies Theorem 2's safe/unsafe classification for a
// source-destination pair against an explicit block list.
func ClassifySource(blocks []Box, src, dst Coord) bool {
	return safety.SourceSafe(blocks, src, dst)
}

// EventSummary reports one fault/recovery occurrence and the convergence
// of the information constructions it triggered (the a_i, b_i, c_i of
// Table 1).
type EventSummary struct {
	// Index is i (1-based); Step is t_i.
	Index, Step int
	// Kind is "fail" or "recover".
	Kind string
	// ARounds/BRounds/CRounds are the labeling / identification / boundary
	// stabilization rounds; ASteps/BSteps/CSteps the step-denominated
	// versions (ceil(rounds/λ)).
	ARounds, BRounds, CRounds int
	ASteps, BSteps, CSteps    int
	// Affected counts nodes whose status changed; EMaxAfter is e_max after
	// stabilization; RecordsAfter the information-store size.
	Affected, EMaxAfter, RecordsAfter int
}

// Events returns the per-occurrence log of the simulation so far. Records
// of events that are still converging hold partial numbers until the next
// event or a Stabilize call finalizes them.
func (s *Simulation) Events() []EventSummary {
	s.engine.FinalizeEvents()
	out := make([]EventSummary, 0, len(s.engine.Events))
	for _, ev := range s.engine.Events {
		out = append(out, EventSummary{
			Index: ev.Index, Step: ev.Step, Kind: ev.Kind.String(),
			ARounds: ev.ARounds, BRounds: ev.BRounds, CRounds: ev.CRounds,
			ASteps: ev.ASteps, BSteps: ev.BSteps, CSteps: ev.CSteps,
			Affected: ev.Affected, EMaxAfter: ev.EMaxAfter, RecordsAfter: ev.RecordsAfter,
		})
	}
	return out
}

// InfoRecords returns the total number of block records stored across the
// mesh (the limited-information memory metric).
func (s *Simulation) InfoRecords() int { return s.model.Store.TotalRecords() }

// NodesWithInfo returns how many nodes hold at least one record.
func (s *Simulation) NodesWithInfo() int { return s.model.Store.NodesWithInfo() }

// Render draws an ASCII picture of a 2-D slice (axes 0 and 1 by default,
// other axes pinned by fixed, which may be nil for the zero slice).
func (s *Simulation) Render(fixed Coord) string {
	return viz.Render(s.mesh, viz.Options{Fixed: fixed, Store: s.model.Store,
		Source: grid.InvalidNode, Dest: grid.InvalidNode})
}
