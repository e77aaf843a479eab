// meshsim runs one dynamic-fault routing simulation from the command line:
// it builds a k-ary n-D mesh, schedules random faults (and optionally
// recoveries), routes a message under a chosen router, and reports the
// routing metrics, the per-occurrence convergence of the information
// constructions, and (for 2-D meshes) an ASCII picture of the final state.
//
// With -trials N (N > 1) it instead replicates the scenario under seeds
// seed, seed+1, ..., seed+N-1 — through ndmesh.RouteSweepWorkers, across
// -workers CPUs, with results independent of the worker count — and prints
// aggregate routing statistics.
//
// Examples:
//
//	meshsim -dims 16x16 -faults 6 -interval 20 -router limited -seed 7
//	meshsim -dims 10x10x10 -faults 4 -interval 40 -router blind
//	meshsim -dims 16x16 -faults 5 -recover-after 60 -render
//	meshsim -dims 16x16 -faults 6 -trials 200 -workers 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"

	"ndmesh"
	"ndmesh/internal/cliutil"
	"ndmesh/internal/stats"
	"ndmesh/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("meshsim: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command behind main: it parses args and prints the
// single run's report (or the -trials aggregate) to stdout (flag errors and
// usage go to stderr), so main_test.go drives the CLI in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("meshsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dimsFlag     = fs.String("dims", "16x16", "mesh dimensions, e.g. 16x16 or 10x10x10")
		faults       = fs.Int("faults", 4, "number of dynamic faults F")
		interval     = fs.Int("interval", 20, "steps between fault occurrences d_i")
		start        = fs.Int("start", 2, "step of the first fault t_1")
		recoverAfter = fs.Int("recover-after", 0, "recover each fault after this many steps (0 = never)")
		router       = fs.String("router", "limited", "router: limited | congested | oracle | blind | dor")
		lambda       = fs.Int("lambda", 2, "information rounds per step (λ)")
		seed         = fs.Uint64("seed", 1, "random seed")
		srcFlag      = fs.String("src", "", "source coordinate, e.g. 1,1 (default: low corner + 1)")
		dstFlag      = fs.String("dst", "", "destination coordinate (default: high corner - 1)")
		render       = fs.Bool("render", false, "print an ASCII picture of the final 2-D slice")
		clustered    = fs.Bool("clustered", false, "grow one block instead of scattering faults")
		trials       = fs.Int("trials", 1, "replicate the scenario under this many consecutive seeds and aggregate")
		workers      = fs.Int("workers", 0, "parallel trial workers for -trials (0 = all CPUs)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	dims, err := cliutil.ParseDims(*dimsFlag)
	if err != nil {
		return err
	}

	src, dst := defaultEndpoints(dims)
	if *srcFlag != "" {
		if src, err = cliutil.ParseCoord(*srcFlag, len(dims)); err != nil {
			return err
		}
	}
	if *dstFlag != "" {
		if dst, err = cliutil.ParseCoord(*dstFlag, len(dims)); err != nil {
			return err
		}
	}

	plan := func(seed uint64) ndmesh.FaultPlan {
		return ndmesh.FaultPlan{
			Faults:       *faults,
			Interval:     *interval,
			Start:        *start,
			RecoverAfter: *recoverAfter,
			Clustered:    *clustered,
			Avoid:        []ndmesh.Coord{src, dst},
			Seed:         seed,
		}
	}

	if *trials > 1 {
		return runBatch(stdout, dims, *lambda, *router, src, dst, *seed, *trials, *workers, plan)
	}

	sim, err := ndmesh.NewSimulation(ndmesh.Config{Dims: dims, Lambda: *lambda})
	if err != nil {
		return err
	}

	if err := sim.GenerateFaults(plan(*seed)); err != nil {
		return err
	}

	res, err := sim.Route(src, dst, *router)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "mesh %v, %d nodes, router %s, λ=%d, seed %d\n",
		dims, sim.NumNodes(), *router, *lambda, *seed)
	fmt.Fprintf(stdout, "route %v -> %v (distance %d)\n", src, dst, res.D0)
	status := "arrived"
	switch {
	case res.Unreachable:
		status = "unreachable"
	case res.Lost:
		status = "lost"
	}
	fmt.Fprintf(stdout, "  %s in %d steps: %d hops, %d extra, %d backtracks\n",
		status, res.Steps, res.Hops, res.ExtraHops, res.Backtracks)

	sim.Drain() // fire any remaining scheduled events and settle
	fmt.Fprintf(stdout, "\nfaulty blocks: %v\n", sim.Blocks())
	fmt.Fprintf(stdout, "info records: %d on %d of %d nodes\n",
		sim.InfoRecords(), sim.NodesWithInfo(), sim.NumNodes())
	fmt.Fprintln(stdout, "\nper-occurrence convergence (rounds):")
	fmt.Fprintf(stdout, "  %-3s %-6s %-8s %5s %5s %5s %9s %6s\n", "i", "step", "kind", "a_i", "b_i", "c_i", "affected", "e_max")
	for _, ev := range sim.Events() {
		fmt.Fprintf(stdout, "  %-3d %-6d %-8s %5d %5d %5d %9d %6d\n",
			ev.Index, ev.Step, ev.Kind, ev.ARounds, ev.BRounds, ev.CRounds, ev.Affected, ev.EMaxAfter)
	}

	if *render && len(dims) >= 2 {
		fmt.Fprintln(stdout, "\nfinal state ('X' faulty, '#' disabled, 'o' holds block info):")
		fmt.Fprint(stdout, sim.Render(nil))
	}
	return nil
}

// runBatch replicates one scenario under consecutive seeds through the
// library's route sweep and prints aggregate routing metrics. The output is
// identical for every -workers value.
func runBatch(stdout io.Writer, dims []int, lambda int, router string, src, dst ndmesh.Coord,
	seed uint64, trials, workers int, plan func(seed uint64) ndmesh.FaultPlan) error {
	plans := make([]ndmesh.FaultPlan, trials)
	for i := range plans {
		plans[i] = plan(seed + uint64(i))
	}
	results, err := ndmesh.RouteSweepWorkers(ndmesh.Config{Dims: dims, Lambda: lambda}, src, dst, router, plans, workers)
	if err != nil {
		return err
	}

	var hops, extra, back stats.Summary
	latencies := make([]int, 0, trials)
	arrived, unreachable, lost := 0, 0, 0
	for _, res := range results {
		switch {
		case res.Arrived:
			arrived++
			hops.AddInt(res.Hops)
			extra.AddInt(res.ExtraHops)
			back.AddInt(res.Backtracks)
			latencies = append(latencies, res.Steps)
		case res.Unreachable:
			unreachable++
		case res.Lost:
			lost++
		}
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(stdout, "mesh %v, router %s, λ=%d, %d trials (seeds %d..%d), %d workers\n",
		dims, router, lambda, trials, seed, seed+uint64(trials)-1, workers)
	fmt.Fprintf(stdout, "route %v -> %v\n", src, dst)
	fmt.Fprintf(stdout, "  arrived     %5d (%.1f%%)\n", arrived, 100*float64(arrived)/float64(trials))
	fmt.Fprintf(stdout, "  unreachable %5d\n", unreachable)
	fmt.Fprintf(stdout, "  lost        %5d\n", lost)
	if arrived > 0 {
		fmt.Fprintf(stdout, "  hops        mean %.2f   extra mean %.2f   backtracks mean %.2f\n",
			hops.Mean(), extra.Mean(), back.Mean())
		lat := traffic.Summarize(latencies)
		fmt.Fprintf(stdout, "  latency     mean %.2f steps   p50 %d   p95 %d   p99 %d   max %d\n",
			lat.Mean, lat.P50, lat.P95, lat.P99, lat.Max)
	}
	return nil
}

func defaultEndpoints(dims []int) (ndmesh.Coord, ndmesh.Coord) {
	src := make(ndmesh.Coord, len(dims))
	dst := make(ndmesh.Coord, len(dims))
	for i, k := range dims {
		src[i] = 1
		dst[i] = k - 2
	}
	return src, dst
}
