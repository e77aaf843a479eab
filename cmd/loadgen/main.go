// loadgen drives the contention-aware traffic subsystem from the command
// line: open-loop synthetic injection (uniform, transpose, complement,
// bitrev, hotspot, neighbor) at one or more rates, closed-loop
// bounded-window request workloads (-windows), and deterministic workload
// traces (-trace-record / -trace-replay), with per-link service arbitration
// and optional finite router buffers, through the standard
// warmup/measure/drain methodology. One row per cell: accepted throughput,
// drop/unreachable/lost/unfinished counts and the delivered-latency
// distribution — a latency-throughput curve when -rates or -windows sweeps.
//
// Examples:
//
//	loadgen -dims 8x8 -rates 0.1 -patterns uniform
//	loadgen -dims 8x8 -rates 0.02,0.05,0.1,0.2,0.35 -patterns uniform,transpose
//	loadgen -dims 8x8 -rates 0.1,0.3 -routers limited,blind -faults 4 -interval 40
//	loadgen -dims 8x8 -rates 0.2,0.3,0.4 -routers limited,congested -capacity 8
//	loadgen -dims 6x6x6 -rates 0.05 -patterns hotspot -process bursty -capacity 4
//	loadgen -dims 8x8 -windows 1,2,4,8,16 -patterns uniform -capacity 8
//	loadgen -dims 8x8 -windows 8 -capacity 4 -timeout 16 -retry-backoff 4 -bubble -gridlock-window 8
//	loadgen -dims 8x8 -rates 0.1 -fault-rate 0.01 -repair 150 -timeout 48
//	loadgen -dims 8x8 -rates 0.1 -fault-rate 0.02 -fault-model weibull -fault-shape 1.5 -clustered
//	loadgen -dims 8x8 -rates 0.2 -patterns uniform -trace-record w.ndwt
//	loadgen -trace-replay w.ndwt -routers congested -capacity 8
//	loadgen -trace-replay w.ndwt -routers limited,congested,blind,dor
//	loadgen -dims 8x8 -rates 0.35 -timeseries ts.csv -heatmap hm.csv -hist lat.csv
//	loadgen -dims 16x16 -rates 0.3 -measure 20000 -probe-every 16 -timeseries ts.csv -debug-addr :6060
//
// With several -routers, -trace-replay becomes a comparison sweep: every
// router replays the identical offer stream and fault schedule, one row
// per router, so the rows differ by router choice alone.
//
// The telemetry flags (-timeseries, -heatmap, -hist, -probe-every,
// -debug-addr) attach internal/probe recorders to a single run: a
// per-step census time series, per-node residency + per-link stall
// heatmaps, and the full delivered-latency distribution, each with a
// .manifest.json sidecar recording the schema, configuration and seed.
// Observation is read-only — the printed row is byte-identical with or
// without probes. -debug-addr additionally serves net/http/pprof and a
// live JSON census at /debug/census for the life of the process.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"ndmesh"
	"ndmesh/internal/cliutil"
	"ndmesh/internal/engine"
	"ndmesh/internal/stats"
	"ndmesh/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// flags is the parsed command line, plus what run resolves from it before
// it picks a workload.
type flags struct {
	dimsFlag, routersFlag, patternsFlag, ratesFlag, windowsFlag string
	process, faultModel, traceRecord, traceReplay               string
	lambda, warmup, measure, drain, linkRate, capacity          int
	timeout, retryBackoff, gridlockWin                          int
	faults, interval, faultStart, workers                       int
	bubble, clustered, csv, progressFlag                        bool
	faultRate, faultShape, repair                               float64
	seed                                                        uint64
	probe                                                       probeFlags

	dims              []int
	routers, patterns []string
	progress          func(done, total int)
}

// sweep runs one load sweep under the telemetry flags. It is the one place
// the flags become sweep options: everything the open- and closed-loop
// sweeps share is set here, axis sets the sweep's own axis (n entries long)
// and run is its library entry point.
func sweep[Row any](f *flags, what string, n int, axis func(*ndmesh.LoadSweepOptions[Row]),
	run func(ndmesh.LoadSweepOptions[Row], uint64, int) ([]Row, error)) ([]Row, error) {
	if err := requireSingleRun(f.probe, what, len(f.routers)*len(f.patterns)*n); err != nil {
		return nil, err
	}
	opt := ndmesh.LoadSweepOptions[Row]{
		Dims: f.dims, Lambda: f.lambda,
		Routers: f.routers, Patterns: f.patterns,
		Warmup: f.warmup, Measure: f.measure, Drain: f.drain,
		LinkRate: f.linkRate, NodeCapacity: f.capacity,
		FlightTimeout: f.timeout, RetryBackoff: f.retryBackoff,
		Bubble: f.bubble, GridlockWindow: f.gridlockWin,
		Faults: f.faults, FaultInterval: f.interval, Clustered: f.clustered,
		FaultStart: f.faultStart, FaultRate: f.faultRate, FaultModel: f.faultModel,
		FaultShape: f.faultShape, FaultRepair: f.repair,
		Progress: f.progress,
	}
	axis(&opt)
	var rows []Row
	err := probed(f.probe, f.dims, f.warmup+f.measure+f.drain, f.seed, func(p engine.Probe, every int) (cfg any, err error) {
		opt.Probe, opt.ProbeEvery = p, every
		rows, err = run(opt, f.seed, f.workers)
		return opt, err
	})
	return rows, err
}

// run is the whole command behind main: it parses args, executes the
// selected workload and prints its table to stdout (flag errors and usage
// go to stderr), so main_test.go drives the CLI in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f flags
	fs.StringVar(&f.dimsFlag, "dims", "8x8", "mesh dimensions, e.g. 8x8 or 6x6x6")
	fs.StringVar(&f.routersFlag, "routers", "limited", "comma-separated routers: limited | congested | oracle | blind | dor")
	fs.StringVar(&f.patternsFlag, "patterns", "uniform", "comma-separated patterns: uniform | transpose | complement | bitrev | hotspot | neighbor")
	fs.StringVar(&f.ratesFlag, "rates", "0.1", "comma-separated injection rates (messages/node/step)")
	fs.StringVar(&f.windowsFlag, "windows", "", "comma-separated closed-loop windows (outstanding requests/node); selects the closed-loop workload and ignores -rates/-process")
	fs.StringVar(&f.process, "process", "bernoulli", "arrival process: bernoulli | poisson | bursty")
	fs.IntVar(&f.lambda, "lambda", 1, "information rounds per step (λ)")
	fs.IntVar(&f.warmup, "warmup", 64, "warmup steps (not measured)")
	fs.IntVar(&f.measure, "measure", 256, "measurement-window steps")
	fs.IntVar(&f.drain, "drain", 256, "drain steps (no injection)")
	fs.IntVar(&f.linkRate, "link-rate", 1, "messages a directed link serves per step")
	fs.IntVar(&f.capacity, "capacity", 0, "per-node input-queue depth (0 = unbounded)")
	fs.IntVar(&f.timeout, "timeout", 0, "kill any flight stalled in place this many consecutive steps (0 = off); closed-loop sources retry the request")
	fs.IntVar(&f.retryBackoff, "retry-backoff", 0, "closed-loop retry backoff base delay in steps (doubles per consecutive timeout; with -timeout)")
	fs.BoolVar(&f.bubble, "bubble", false, "bubble admission: injection must leave >= 1 free input-buffer slot (needs -capacity >= 2)")
	fs.IntVar(&f.gridlockWin, "gridlock-window", 0, "declare gridlock after this many consecutive zero-progress steps (0 = no detection)")
	fs.IntVar(&f.faults, "faults", 0, "dynamic faults overlaid on the run (0 = fault-free)")
	fs.IntVar(&f.interval, "interval", 40, "steps between fault occurrences")
	fs.BoolVar(&f.clustered, "clustered", false, "grow one block instead of scattering faults")
	fs.Float64Var(&f.faultRate, "fault-rate", 0, "stochastic fault process: mean failures per step over the whole run (0 = off; mutually exclusive with -faults)")
	fs.StringVar(&f.faultModel, "fault-model", "", "fault inter-arrival model: bernoulli | weibull (with -fault-rate; empty = bernoulli)")
	fs.Float64Var(&f.faultShape, "fault-shape", 0, "weibull shape for -fault-model weibull (0 = library default)")
	fs.IntVar(&f.faultStart, "fault-start", 0, "earliest step a fault may occur (0 = library default)")
	fs.Float64Var(&f.repair, "repair", 0, "mean repair delay in steps for process faults (0 = faults are permanent)")
	fs.Uint64Var(&f.seed, "seed", 1, "random seed")
	fs.IntVar(&f.workers, "workers", 0, "parallel cell workers (0 = all CPUs); results are identical for every value")
	fs.StringVar(&f.traceRecord, "trace-record", "", "record the run's offered workload (single cell only) into this file")
	fs.StringVar(&f.traceReplay, "trace-replay", "", "replay a recorded workload trace from this file (overrides -dims/-rates/-windows/-patterns/-faults and the phase lengths)")
	fs.BoolVar(&f.csv, "csv", false, "emit CSV instead of an aligned table")
	fs.StringVar(&f.probe.timeseries, "timeseries", "", "write the run's per-step census time series to this CSV (single run only; a .manifest.json sidecar is written alongside)")
	fs.StringVar(&f.probe.heatmap, "heatmap", "", "write per-node residency + per-link stall heatmap accumulators to this CSV (single run only; render with faultviz -heatmap)")
	fs.StringVar(&f.probe.hist, "hist", "", "write the full delivered-latency distribution (log-bucketed histogram) to this CSV (single run only)")
	fs.IntVar(&f.probe.every, "probe-every", 1, "flush the census every N steps (counters aggregate the interval, gauges sample its last step)")
	fs.BoolVar(&f.progressFlag, "progress", false, "print per-cell sweep completion to stderr")
	fs.StringVar(&f.probe.debugAddr, "debug-addr", "", "serve net/http/pprof and a JSON census snapshot (/debug/census) on this address for the life of the process, e.g. :6060 (single run only)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var err error
	if f.dims, err = cliutil.ParseDims(f.dimsFlag); err != nil {
		return err
	}
	f.routers = cliutil.SplitList(f.routersFlag)
	f.patterns = cliutil.SplitList(f.patternsFlag)
	if len(f.routers) == 0 {
		return errors.New("-routers needs at least one router")
	}
	if len(f.patterns) == 0 {
		return errors.New("-patterns needs at least one pattern")
	}
	f.progress = cliutil.Progress(f.progressFlag, "loadgen")
	dims, routers, patterns, pf := f.dims, f.routers, f.patterns, f.probe

	// faultDesc summarizes the fault overlay for table titles: the fixed
	// count, or the stochastic process when -fault-rate is set.
	faultDesc := fmt.Sprintf("F=%d", f.faults)
	if f.faultRate > 0 {
		faultDesc = fmt.Sprintf("frate=%g(%s) repair=%g", f.faultRate, func() string {
			if f.faultModel != "" {
				return f.faultModel
			}
			return "bernoulli"
		}(), f.repair)
	}

	emitTable := func(tab *stats.Table) {
		if f.csv {
			fmt.Fprint(stdout, tab.CSV())
		} else {
			fmt.Fprint(stdout, tab.String())
		}
	}
	newPointTable := func(title string) *stats.Table {
		return stats.NewTable(title,
			"workload", "router", "offered", "accepted", "delivered", "dropped", "unreach", "lost",
			"timeout", "retried", "unfin", "gridlock", "failed", "recovered",
			"lat mean", "p50", "p95", "p99", "max")
	}
	addPointRow := func(tab *stats.Table, workload, router string, pt traffic.LoadPoint) {
		gl := ""
		if pt.Gridlocked {
			gl = fmt.Sprintf("GRIDLOCK@%d", pt.GridlockStep)
		}
		tab.AddRow(workload, router, fmt.Sprintf("%.3f", pt.OfferedRate), fmt.Sprintf("%.3f", pt.AcceptedRate),
			pt.Delivered, pt.Dropped, pt.Unreachable, pt.Lost,
			pt.TimedOut, pt.Retried, pt.Unfinished, gl, pt.Failed, pt.Recovered,
			pt.Latency.Mean, pt.Latency.P50, pt.Latency.P95, pt.Latency.P99, pt.Latency.Max)
	}
	pointTable := func(title string, router, workload string, pt traffic.LoadPoint) *stats.Table {
		tab := newPointTable(title)
		addPointRow(tab, workload, router, pt)
		return tab
	}

	// Trace replay: the trace is the workload; only the engine-side
	// configuration (router, contention, λ) is taken from the flags.
	if f.traceReplay != "" {
		data, err := os.ReadFile(f.traceReplay)
		if err != nil {
			return err
		}
		tr, err := traffic.UnmarshalTrace(data)
		if err != nil {
			return err
		}
		// Engine-side flags override the trace only when given explicitly
		// on the command line: the flag *defaults* must not silently
		// replace the recorded configuration (that was exactly the footgun
		// the trace records them to close).
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		capacityOverride := 0
		if set["capacity"] {
			capacityOverride = f.capacity
			if f.capacity == 0 {
				// 0 is the flag's "unbounded" value; the library reserves
				// zero for trace inheritance, so an explicit 0 becomes the
				// explicit-unbounded sentinel.
				capacityOverride = -1
			}
		}
		lambdaOverride, linkRateOverride := 0, 0
		if set["lambda"] {
			lambdaOverride = f.lambda
		}
		if set["link-rate"] {
			linkRateOverride = f.linkRate
		}
		mode := "open-loop"
		if tr.ClosedLoop {
			mode = fmt.Sprintf("closed-loop w=%d", tr.Window)
		}
		linkRateEff, capacityEff := tr.LinkRate, tr.NodeCapacity
		if set["link-rate"] {
			linkRateEff = f.linkRate
		}
		if set["capacity"] {
			capacityEff = f.capacity
		}

		opt := ndmesh.LoadOptions{
			Seed:   f.seed,
			Lambda: lambdaOverride, LinkRate: linkRateOverride, NodeCapacity: capacityOverride,
			FlightTimeout: f.timeout, RetryBackoff: f.retryBackoff,
			Bubble: f.bubble, GridlockWindow: f.gridlockWin,
			Replay: tr, Progress: f.progress,
		}

		// Several routers: the comparison sweep — every arm replays the
		// identical offer stream and fault schedule, one row per router.
		if len(routers) > 1 {
			if f.traceRecord != "" {
				return errors.New("-trace-record with -trace-replay needs exactly one -routers entry")
			}
			if err := requireSingleRun(pf, "replay router arms", len(routers)); err != nil {
				return err
			}
			rows, err := ndmesh.ReplayCompareSweepWorkers(opt, routers, f.workers)
			if err != nil {
				return err
			}
			title := fmt.Sprintf("trace replay comparison: %s (%v, %s, %d offers over %d steps), link-rate=%d, capacity=%d",
				f.traceReplay, tr.Dims, mode, tr.Offers(), tr.Steps(), linkRateEff, capacityEff)
			tab := newPointTable(title)
			for _, row := range rows {
				addPointRow(tab, "trace", row.Router, row.Point)
			}
			emitTable(tab)
			return nil
		}

		opt.Router = routers[0]
		if f.traceRecord != "" {
			// Re-record the replay: the offered stream and fault schedule
			// carry over, so the written trace is a standalone equivalent
			// of the input (useful for normalizing or re-homing traces).
			opt.Record = &traffic.Trace{}
		}
		var pt traffic.LoadPoint
		err = probed(pf, tr.Dims, tr.Warmup+tr.Measure+tr.Drain, f.seed, func(p engine.Probe, every int) (cfg any, err error) {
			opt.Probe, opt.ProbeEvery = p, every
			pt, err = ndmesh.LoadRun(opt)
			return opt, err
		})
		if err != nil {
			return err
		}
		if f.traceRecord != "" {
			if err := os.WriteFile(f.traceRecord, opt.Record.Marshal(), 0o644); err != nil {
				return err
			}
		}
		title := fmt.Sprintf("trace replay: %s (%v, %s, %d offers over %d steps), link-rate=%d, capacity=%d",
			f.traceReplay, tr.Dims, mode, tr.Offers(), tr.Steps(), linkRateEff, capacityEff)
		emitTable(pointTable(title, routers[0], "trace", pt))
		return nil
	}

	windows, err := cliutil.ParseInts(f.windowsFlag)
	if err != nil {
		return err
	}

	// Trace recording: one live cell, its offered workload captured.
	if f.traceRecord != "" {
		if len(routers) != 1 || len(patterns) != 1 {
			return errors.New("-trace-record needs exactly one router and one pattern")
		}
		opt := ndmesh.LoadOptions{
			Dims: dims, Lambda: f.lambda, Router: routers[0], Pattern: patterns[0],
			Process: f.process,
			Warmup:  f.warmup, Measure: f.measure, Drain: f.drain,
			LinkRate: f.linkRate, NodeCapacity: f.capacity,
			FlightTimeout: f.timeout, RetryBackoff: f.retryBackoff,
			Bubble: f.bubble, GridlockWindow: f.gridlockWin,
			Faults: f.faults, FaultInterval: f.interval, Clustered: f.clustered,
			FaultStart: f.faultStart, FaultRate: f.faultRate, FaultModel: f.faultModel,
			FaultShape: f.faultShape, FaultRepair: f.repair,
			Seed:   f.seed,
			Record: &traffic.Trace{},
		}
		var workload string
		switch {
		case len(windows) == 1:
			opt.Window = windows[0]
			workload = fmt.Sprintf("%s w=%d", patterns[0], windows[0])
		case len(windows) > 1:
			return errors.New("-trace-record needs exactly one -windows entry")
		default:
			rates, err := cliutil.ParseRates(f.ratesFlag)
			if err != nil {
				return err
			}
			if len(rates) != 1 {
				return errors.New("-trace-record needs exactly one -rates entry")
			}
			opt.Rate = rates[0]
			workload = fmt.Sprintf("%s @%.3f", patterns[0], rates[0])
		}
		var pt traffic.LoadPoint
		err = probed(pf, dims, f.warmup+f.measure+f.drain, f.seed, func(p engine.Probe, every int) (cfg any, err error) {
			opt.Probe, opt.ProbeEvery = p, every
			pt, err = ndmesh.LoadRun(opt)
			return opt, err
		})
		if err != nil {
			return err
		}
		if err := os.WriteFile(f.traceRecord, opt.Record.Marshal(), 0o644); err != nil {
			return err
		}
		title := fmt.Sprintf("trace record: %s (%s, %d offers over %d steps), link-rate=%d, capacity=%d, %s",
			f.traceRecord, f.dimsFlag, opt.Record.Offers(), opt.Record.Steps(), f.linkRate, f.capacity, faultDesc)
		emitTable(pointTable(title, routers[0], workload, pt))
		return nil
	}

	// Closed-loop sweep (E21): windows replace rates as the load knob.
	if len(windows) > 0 {
		rows, err := sweep(&f, "closed-loop cells", len(windows),
			func(o *ndmesh.ClosedLoopOptions) { o.Windows = windows }, ndmesh.ClosedLoopSweepWorkers)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("closed loop: %s, link-rate=%d, capacity=%d, %s, warmup/measure/drain=%d/%d/%d",
			f.dimsFlag, f.linkRate, f.capacity, faultDesc, f.warmup, f.measure, f.drain)
		tab := stats.NewTable(title,
			"pattern", "router", "window", "inj rate", "accepted", "delivered", "unreach", "lost", "unfin",
			"lat mean", "p50", "p95", "p99", "max")
		for _, r := range rows {
			tab.AddRow(r.Pattern, r.Router, r.Window, fmt.Sprintf("%.3f", r.InjectedRate), fmt.Sprintf("%.3f", r.AcceptedRate),
				r.Delivered, r.Unreachable, r.Lost, r.Unfinished,
				r.LatMean, r.LatP50, r.LatP95, r.LatP99, r.LatMax)
		}
		emitTable(tab)
		return nil
	}

	rates, err := cliutil.ParseRates(f.ratesFlag)
	if err != nil {
		return err
	}
	rows, err := sweep(&f, "open-loop cells", len(rates),
		func(o *ndmesh.SaturationOptions) { o.Rates, o.Process = rates, f.process }, ndmesh.SaturationSweepWorkers)
	if err != nil {
		return err
	}

	title := fmt.Sprintf("saturation: %s, process=%s, link-rate=%d, capacity=%d, %s, warmup/measure/drain=%d/%d/%d",
		f.dimsFlag, f.process, f.linkRate, f.capacity, faultDesc, f.warmup, f.measure, f.drain)
	// The column set and formatting live in cliutil so meshd's streamed CSV
	// is byte-identical to -csv output here (the CI smoke job diffs them).
	emitTable(cliutil.OpenLoopTable(title, rows))
	return nil
}
