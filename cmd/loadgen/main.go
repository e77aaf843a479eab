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
	"ndmesh/internal/route"
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

// run is the whole command behind main: it parses args, executes the
// selected workload and prints its table to stdout (flag errors and usage
// go to stderr), so main_test.go drives the CLI in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dimsFlag     = fs.String("dims", "8x8", "mesh dimensions, e.g. 8x8 or 6x6x6")
		routersFlag  = fs.String("routers", "limited", "comma-separated routers: limited | congested | oracle | blind | dor")
		patternsFlag = fs.String("patterns", "uniform", "comma-separated patterns: uniform | transpose | complement | bitrev | hotspot | neighbor")
		ratesFlag    = fs.String("rates", "0.1", "comma-separated injection rates (messages/node/step)")
		windowsFlag  = fs.String("windows", "", "comma-separated closed-loop windows (outstanding requests/node); selects the closed-loop workload and ignores -rates/-process")
		process      = fs.String("process", "bernoulli", "arrival process: bernoulli | poisson | bursty")
		lambda       = fs.Int("lambda", 1, "information rounds per step (λ)")
		warmup       = fs.Int("warmup", 64, "warmup steps (not measured)")
		measure      = fs.Int("measure", 256, "measurement-window steps")
		drain        = fs.Int("drain", 256, "drain steps (no injection)")
		linkRate     = fs.Int("link-rate", 1, "messages a directed link serves per step")
		capacity     = fs.Int("capacity", 0, "per-node input-queue depth (0 = unbounded)")
		margin       = fs.Int("margin", 1, "congested router: load advantage required to leave the baseline pick")
		nodeWeight   = fs.Int("node-weight", 1, "congested router: weight of downstream node residency (0 disables the signal)")
		linkWeight   = fs.Int("link-weight", 1, "congested router: weight of directed-link pending depth (0 disables the signal)")
		congPreset   = fs.String("congestion", "", "congested router preset: off | mild | aggressive (overrides -margin/-node-weight/-link-weight)")
		timeout      = fs.Int("timeout", 0, "kill any flight stalled in place this many consecutive steps (0 = off); closed-loop sources retry the request")
		retryBackoff = fs.Int("retry-backoff", 0, "closed-loop retry backoff base delay in steps (doubles per consecutive timeout; with -timeout)")
		bubble       = fs.Bool("bubble", false, "bubble admission: injection must leave >= 1 free input-buffer slot (needs -capacity >= 2)")
		gridlockWin  = fs.Int("gridlock-window", 0, "declare gridlock after this many consecutive zero-progress steps (0 = no detection)")
		faults       = fs.Int("faults", 0, "dynamic faults overlaid on the run (0 = fault-free)")
		interval     = fs.Int("interval", 40, "steps between fault occurrences")
		clustered    = fs.Bool("clustered", false, "grow one block instead of scattering faults")
		faultRate    = fs.Float64("fault-rate", 0, "stochastic fault process: mean failures per step over the whole run (0 = off; mutually exclusive with -faults)")
		faultModel   = fs.String("fault-model", "", "fault inter-arrival model: bernoulli | weibull (with -fault-rate; empty = bernoulli)")
		faultShape   = fs.Float64("fault-shape", 0, "weibull shape for -fault-model weibull (0 = library default)")
		faultStart   = fs.Int("fault-start", 0, "earliest step a fault may occur (0 = library default)")
		repair       = fs.Float64("repair", 0, "mean repair delay in steps for process faults (0 = faults are permanent)")
		seed         = fs.Uint64("seed", 1, "random seed")
		workers      = fs.Int("workers", 0, "parallel cell workers (0 = all CPUs); results are identical for every value")
		traceRecord  = fs.String("trace-record", "", "record the run's offered workload (single cell only) into this file")
		traceReplay  = fs.String("trace-replay", "", "replay a recorded workload trace from this file (overrides -dims/-rates/-windows/-patterns/-faults and the phase lengths)")
		csv          = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		timeseries   = fs.String("timeseries", "", "write the run's per-step census time series to this CSV (single run only; a .manifest.json sidecar is written alongside)")
		heatmapOut   = fs.String("heatmap", "", "write per-node residency + per-link stall heatmap accumulators to this CSV (single run only; render with faultviz -heatmap)")
		histOut      = fs.String("hist", "", "write the full delivered-latency distribution (log-bucketed histogram) to this CSV (single run only)")
		probeEvery   = fs.Int("probe-every", 1, "flush the census every N steps (counters aggregate the interval, gauges sample its last step)")
		progressFlag = fs.Bool("progress", false, "print per-cell sweep completion to stderr")
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof and a JSON census snapshot (/debug/census) on this address for the life of the process, e.g. :6060 (single run only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	dims, err := cliutil.ParseDims(*dimsFlag)
	if err != nil {
		return err
	}
	routers := cliutil.SplitList(*routersFlag)
	patterns := cliutil.SplitList(*patternsFlag)
	if len(routers) == 0 {
		return errors.New("-routers needs at least one router")
	}
	if len(patterns) == 0 {
		return errors.New("-patterns needs at least one pattern")
	}
	pf := probeFlags{
		timeseries: *timeseries, heatmap: *heatmapOut, hist: *histOut,
		every: *probeEvery, debugAddr: *debugAddr,
	}
	progress := cliutil.Progress(*progressFlag, "loadgen")
	congestion := route.CongestionConfig{Margin: *margin, NodeWeight: *nodeWeight, LinkWeight: *linkWeight}
	if *congPreset != "" {
		congestion, err = route.CongestionPresetByName(*congPreset)
		if err != nil {
			return err
		}
	}

	// faultDesc summarizes the fault overlay for table titles: the fixed
	// count, or the stochastic process when -fault-rate is set.
	faultDesc := fmt.Sprintf("F=%d", *faults)
	if *faultRate > 0 {
		faultDesc = fmt.Sprintf("frate=%g(%s) repair=%g", *faultRate, func() string {
			if *faultModel != "" {
				return *faultModel
			}
			return "bernoulli"
		}(), *repair)
	}

	emitTable := func(tab *stats.Table) {
		if *csv {
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
	if *traceReplay != "" {
		data, err := os.ReadFile(*traceReplay)
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
			capacityOverride = *capacity
			if *capacity == 0 {
				// 0 is the flag's "unbounded" value; the library reserves
				// zero for trace inheritance, so an explicit 0 becomes the
				// explicit-unbounded sentinel.
				capacityOverride = -1
			}
		}
		lambdaOverride, linkRateOverride := 0, 0
		if set["lambda"] {
			lambdaOverride = *lambda
		}
		if set["link-rate"] {
			linkRateOverride = *linkRate
		}
		mode := "open-loop"
		if tr.ClosedLoop {
			mode = fmt.Sprintf("closed-loop w=%d", tr.Window)
		}
		linkRateEff, capacityEff := tr.LinkRate, tr.NodeCapacity
		if set["link-rate"] {
			linkRateEff = *linkRate
		}
		if set["capacity"] {
			capacityEff = *capacity
		}

		// Several routers: the comparison sweep — every arm replays the
		// identical offer stream and fault schedule, one row per router.
		if len(routers) > 1 {
			if *traceRecord != "" {
				return errors.New("-trace-record with -trace-replay needs exactly one -routers entry")
			}
			if err := requireSingleRun(pf, "replay router arms", len(routers)); err != nil {
				return err
			}
			ropt := ndmesh.ReplayCompareOptions{
				Trace: tr, Routers: routers,
				Lambda: lambdaOverride, LinkRate: linkRateOverride, NodeCapacity: capacityOverride,
				Congestion:    congestion,
				FlightTimeout: *timeout, RetryBackoff: *retryBackoff,
				Bubble: *bubble, GridlockWindow: *gridlockWin,
				Progress: progress,
			}
			rows, err := ndmesh.ReplayCompareSweepWorkers(ropt, *seed, *workers)
			if err != nil {
				return err
			}
			title := fmt.Sprintf("trace replay comparison: %s (%v, %s, %d offers over %d steps), link-rate=%d, capacity=%d",
				*traceReplay, tr.Dims, mode, tr.Offers(), tr.Steps(), linkRateEff, capacityEff)
			tab := newPointTable(title)
			for _, row := range rows {
				addPointRow(tab, "trace", row.Router, row.Point)
			}
			emitTable(tab)
			return nil
		}

		opt := ndmesh.LoadOptions{
			Router:     routers[0],
			Congestion: congestion, Seed: *seed,
			Lambda: lambdaOverride, LinkRate: linkRateOverride, NodeCapacity: capacityOverride,
			FlightTimeout: *timeout, RetryBackoff: *retryBackoff,
			Bubble: *bubble, GridlockWindow: *gridlockWin,
			Replay: tr,
		}
		if *traceRecord != "" {
			// Re-record the replay: the offered stream and fault schedule
			// carry over, so the written trace is a standalone equivalent
			// of the input (useful for normalizing or re-homing traces).
			opt.Record = &traffic.Trace{}
		}
		var pt traffic.LoadPoint
		err = probed(pf, tr.Dims, tr.Warmup+tr.Measure+tr.Drain, *seed, func(p engine.Probe, every int) (cfg any, err error) {
			opt.Probe, opt.ProbeEvery = p, every
			pt, err = ndmesh.LoadRun(opt)
			return opt, err
		})
		if err != nil {
			return err
		}
		if *traceRecord != "" {
			if err := os.WriteFile(*traceRecord, opt.Record.Marshal(), 0o644); err != nil {
				return err
			}
		}
		title := fmt.Sprintf("trace replay: %s (%v, %s, %d offers over %d steps), link-rate=%d, capacity=%d",
			*traceReplay, tr.Dims, mode, tr.Offers(), tr.Steps(), linkRateEff, capacityEff)
		emitTable(pointTable(title, routers[0], "trace", pt))
		return nil
	}

	windows, err := cliutil.ParseInts(*windowsFlag)
	if err != nil {
		return err
	}

	// Trace recording: one live cell, its offered workload captured.
	if *traceRecord != "" {
		if len(routers) != 1 || len(patterns) != 1 {
			return errors.New("-trace-record needs exactly one router and one pattern")
		}
		opt := ndmesh.LoadOptions{
			Dims: dims, Lambda: *lambda, Router: routers[0], Pattern: patterns[0],
			Process: *process,
			Warmup:  *warmup, Measure: *measure, Drain: *drain,
			LinkRate: *linkRate, NodeCapacity: *capacity,
			Congestion:    congestion,
			FlightTimeout: *timeout, RetryBackoff: *retryBackoff,
			Bubble: *bubble, GridlockWindow: *gridlockWin,
			Faults: *faults, FaultInterval: *interval, Clustered: *clustered,
			FaultStart: *faultStart, FaultRate: *faultRate, FaultModel: *faultModel,
			FaultShape: *faultShape, FaultRepair: *repair,
			Seed:   *seed,
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
			rates, err := cliutil.ParseRates(*ratesFlag)
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
		err = probed(pf, dims, *warmup+*measure+*drain, *seed, func(p engine.Probe, every int) (cfg any, err error) {
			opt.Probe, opt.ProbeEvery = p, every
			pt, err = ndmesh.LoadRun(opt)
			return opt, err
		})
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceRecord, opt.Record.Marshal(), 0o644); err != nil {
			return err
		}
		title := fmt.Sprintf("trace record: %s (%s, %d offers over %d steps), link-rate=%d, capacity=%d, %s",
			*traceRecord, *dimsFlag, opt.Record.Offers(), opt.Record.Steps(), *linkRate, *capacity, faultDesc)
		emitTable(pointTable(title, routers[0], workload, pt))
		return nil
	}

	// Closed-loop sweep (E21): windows replace rates as the load knob.
	if len(windows) > 0 {
		if err := requireSingleRun(pf, "closed-loop cells", len(routers)*len(patterns)*len(windows)); err != nil {
			return err
		}
		opt := ndmesh.ClosedLoopOptions{
			Dims: dims, Lambda: *lambda,
			Routers: routers, Patterns: patterns, Windows: windows,
			Warmup: *warmup, Measure: *measure, Drain: *drain,
			LinkRate: *linkRate, NodeCapacity: *capacity,
			Congestion:    congestion,
			FlightTimeout: *timeout, RetryBackoff: *retryBackoff,
			Bubble: *bubble, GridlockWindow: *gridlockWin,
			Faults: *faults, FaultInterval: *interval, Clustered: *clustered,
			FaultStart: *faultStart, FaultRate: *faultRate, FaultModel: *faultModel,
			FaultShape: *faultShape, FaultRepair: *repair,
			Progress: progress,
		}
		var rows []ndmesh.ClosedLoopRow
		err = probed(pf, dims, *warmup+*measure+*drain, *seed, func(p engine.Probe, every int) (cfg any, err error) {
			opt.Probe, opt.ProbeEvery = p, every
			rows, err = ndmesh.ClosedLoopSweepWorkers(opt, *seed, *workers)
			return opt, err
		})
		if err != nil {
			return err
		}
		title := fmt.Sprintf("closed loop: %s, link-rate=%d, capacity=%d, %s, warmup/measure/drain=%d/%d/%d",
			*dimsFlag, *linkRate, *capacity, faultDesc, *warmup, *measure, *drain)
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

	rates, err := cliutil.ParseRates(*ratesFlag)
	if err != nil {
		return err
	}
	if err := requireSingleRun(pf, "open-loop cells", len(routers)*len(patterns)*len(rates)); err != nil {
		return err
	}
	opt := ndmesh.SaturationOptions{
		Dims:           dims,
		Lambda:         *lambda,
		Routers:        routers,
		Patterns:       patterns,
		Rates:          rates,
		Process:        *process,
		Warmup:         *warmup,
		Measure:        *measure,
		Drain:          *drain,
		LinkRate:       *linkRate,
		NodeCapacity:   *capacity,
		Congestion:     congestion,
		FlightTimeout:  *timeout,
		RetryBackoff:   *retryBackoff,
		Bubble:         *bubble,
		GridlockWindow: *gridlockWin,
		Faults:         *faults,
		FaultInterval:  *interval,
		Clustered:      *clustered,
		FaultStart:     *faultStart,
		FaultRate:      *faultRate,
		FaultModel:     *faultModel,
		FaultShape:     *faultShape,
		FaultRepair:    *repair,
		Progress:       progress,
	}
	var rows []ndmesh.SaturationRow
	err = probed(pf, dims, *warmup+*measure+*drain, *seed, func(p engine.Probe, every int) (cfg any, err error) {
		opt.Probe, opt.ProbeEvery = p, every
		rows, err = ndmesh.SaturationSweepWorkers(opt, *seed, *workers)
		return opt, err
	})
	if err != nil {
		return err
	}

	title := fmt.Sprintf("saturation: %s, process=%s, link-rate=%d, capacity=%d, %s, warmup/measure/drain=%d/%d/%d",
		*dimsFlag, *process, *linkRate, *capacity, faultDesc, *warmup, *measure, *drain)
	// The column set and formatting live in cliutil so meshd's streamed CSV
	// is byte-identical to -csv output here (the CI smoke job diffs them).
	emitTable(cliutil.OpenLoopTable(title, rows))
	return nil
}
