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
// -trace-replay runs the recorded workload under each of -routers, one
// row per router: every router replays the identical offer stream and
// fault schedule, so the rows differ by router choice alone. The trace
// carries the engine configuration it was recorded under; an engine flag
// given explicitly replaces the recorded value (0 and false included). The
// fault-overlay flags and -retry-backoff, which a replay does not read, are
// refused.
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
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

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

// options is the one place the flags become load sweep options: everything
// the open- and closed-loop sweeps and a recording share. The caller sets
// its sweep's own axis.
func options[Row any](f *flags) ndmesh.LoadSweepOptions[Row] {
	return ndmesh.LoadSweepOptions[Row]{
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
}

// check runs the library's pre-run check on the grid opt describes, before
// any recorder or debug server is built: its cell count is what a
// recording and the telemetry flags need to be one.
func check[Row any](f *flags, what string, opt ndmesh.LoadSweepOptions[Row]) error {
	cells, err := opt.Check()
	if err != nil {
		return err
	}
	if f.traceRecord != "" && cells != 1 {
		return fmt.Errorf("-trace-record records a single cell: the flags describe %d %s", cells, what)
	}
	return requireSingleRun(f.probe, what, cells)
}

// sweep runs the checked grid opt describes under the telemetry flags; run
// is its library entry point.
func sweep[Row any](f *flags, opt ndmesh.LoadSweepOptions[Row], run func(ndmesh.LoadSweepOptions[Row], uint64, int) ([]Row, error)) ([]Row, error) {
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
	fs.StringVar(&f.patternsFlag, "patterns", "uniform", "comma-separated patterns: "+strings.Join(traffic.PatternNames(), " | "))
	fs.StringVar(&f.ratesFlag, "rates", "0.1", "comma-separated injection rates (messages/node/step)")
	fs.StringVar(&f.windowsFlag, "windows", "", "comma-separated closed-loop windows (outstanding requests/node); selects the closed-loop workload and ignores -rates/-process")
	fs.StringVar(&f.process, "process", "bernoulli", "arrival process: "+strings.Join(traffic.ProcessNames(), " | "))
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
	fs.StringVar(&f.traceReplay, "trace-replay", "", "replay a recorded workload trace from this file: the trace stands in for -dims/-rates/-windows/-patterns/-process/-interval and the phase lengths, the fault-overlay flags and -retry-backoff are refused, and -lambda/-link-rate/-capacity/-timeout/-gridlock-window/-bubble replace the recorded value only when given, 0 and false included")
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
	routers, patterns, pf := f.routers, f.patterns, f.probe

	// faultDesc summarizes the fault overlay for table titles: the fixed
	// count, or the stochastic process when -fault-rate is set.
	faultDesc := fmt.Sprintf("F=%d", f.faults)
	if f.faultRate > 0 {
		faultDesc = fmt.Sprintf("frate=%g(%s) repair=%g", f.faultRate, cmp.Or(f.faultModel, "bernoulli"), f.repair)
	}

	emitTable := func(tab *stats.Table) {
		if f.csv {
			fmt.Fprint(stdout, tab.CSV())
		} else {
			fmt.Fprint(stdout, tab.String())
		}
	}
	// emitPoints prints a recording's or a replay's table: one row per
	// router arm, under the workload label.
	emitPoints := func(title, workload string, rows ...ndmesh.ReplayCompareRow) {
		tab := stats.NewTable(title,
			"workload", "router", "offered", "accepted", "delivered", "dropped", "unreach", "lost",
			"timeout", "retried", "unfin", "gridlock", "failed", "recovered",
			"lat mean", "p50", "p95", "p99", "max")
		for _, row := range rows {
			pt, gl := row.Point, ""
			if pt.Gridlocked {
				gl = fmt.Sprintf("GRIDLOCK@%d", pt.GridlockStep)
			}
			tab.AddRow(workload, row.Router, fmt.Sprintf("%.3f", pt.OfferedRate), fmt.Sprintf("%.3f", pt.AcceptedRate),
				pt.Delivered, pt.Dropped, pt.Unreachable, pt.Lost,
				pt.TimedOut, pt.Retried, pt.Unfinished, gl, pt.Failed, pt.Recovered,
				pt.Latency.Mean, pt.Latency.P50, pt.Latency.P95, pt.Latency.P99, pt.Latency.Max)
		}
		emitTable(tab)
	}

	// record runs -trace-record on c, the one cell of the checked grid the
	// flags describe with its axes set, under the grid's router and the
	// seed. It returns the cell's row and the trace it wrote.
	record := func(c ndmesh.LoadOptions) ([]ndmesh.ReplayCompareRow, *traffic.Trace, error) {
		c.Router, c.Seed, c.Record = routers[0], f.seed, &traffic.Trace{}
		var pt traffic.LoadPoint
		err := probed(pf, f.dims, f.warmup+f.measure+f.drain, f.seed, func(p engine.Probe, every int) (cfg any, err error) {
			c.Probe, c.ProbeEvery = p, every
			pt, err = ndmesh.LoadRun(c)
			return c, err
		})
		if err == nil {
			err = os.WriteFile(f.traceRecord, c.Record.Marshal(), 0o644)
		}
		return []ndmesh.ReplayCompareRow{{Router: c.Router, Point: pt}}, c.Record, err
	}

	// Trace replay: the trace is the workload. An engine flag given
	// explicitly is written onto it, so 0 and false switch a recorded value
	// off, but a positive -timeout goes through the options: the trace's own
	// timeout tells the library whether its stream carries re-offers, so
	// whether a replayed timeout counts as retried. One router or several,
	// a replay is the library's comparison; re-recording one is LoadRun's.
	if f.traceReplay != "" {
		data, err := os.ReadFile(f.traceReplay)
		if err != nil {
			return err
		}
		tr, err := traffic.UnmarshalTrace(data)
		if err != nil {
			return err
		}
		timeout := 0
		fs.Visit(func(fl *flag.Flag) {
			switch fl.Name {
			case "lambda":
				tr.Lambda = f.lambda
			case "link-rate":
				tr.LinkRate = f.linkRate
			case "capacity":
				tr.NodeCapacity = f.capacity
			case "timeout":
				if timeout = max(f.timeout, 0); timeout == 0 {
					tr.FlightTimeout = 0
				}
			case "gridlock-window":
				tr.GridlockWindow = f.gridlockWin
			case "bubble":
				tr.Bubble = f.bubble
			}
		})
		// Not options(&f): the defaults of -dims, -patterns, -interval and
		// the phase flags are values a replay refuses.
		opt := ndmesh.ReplayCompareOptions{
			Routers: routers, Replay: tr, FlightTimeout: timeout, RetryBackoff: f.retryBackoff,
			Faults: f.faults, Clustered: f.clustered, FaultStart: f.faultStart,
			FaultRate: f.faultRate, FaultModel: f.faultModel, FaultShape: f.faultShape, FaultRepair: f.repair,
			Progress: f.progress,
		}
		if err := check(&f, "replay router arms", opt); err != nil {
			return err
		}
		// The trace stands in for the mesh and phase flags, in the
		// telemetry's sizing too.
		f.dims, f.warmup, f.measure, f.drain = tr.Dims, tr.Warmup, tr.Measure, tr.Drain
		var rows []ndmesh.ReplayCompareRow
		if f.traceRecord != "" {
			// Re-record the replay: the offered stream and fault schedule
			// carry over, so the written trace is a standalone equivalent
			// of the input (useful for normalizing or re-homing traces).
			rows, _, err = record(opt.Cell())
		} else {
			rows, err = sweep(&f, opt, ndmesh.ReplayCompareSweepWorkers)
		}
		if err != nil {
			return err
		}
		what, mode := "trace replay", "open-loop"
		if len(routers) > 1 {
			what = "trace replay comparison"
		}
		if tr.ClosedLoop {
			mode = fmt.Sprintf("closed-loop w=%d", tr.Window)
		}
		emitPoints(fmt.Sprintf("%s: %s (%v, %s, %d offers over %d steps), link-rate=%d, capacity=%d",
			what, f.traceReplay, tr.Dims, mode, tr.Offers(), tr.Steps(), tr.LinkRate, tr.NodeCapacity), "trace", rows...)
		return nil
	}

	windows, err := cliutil.ParseInts(f.windowsFlag)
	if err != nil {
		return err
	}
	// recordLive records the grid's one live cell c and prints its table.
	recordLive := func(c ndmesh.LoadOptions, workload string) error {
		c.Pattern = patterns[0]
		rows, rec, err := record(c)
		if err != nil {
			return err
		}
		emitPoints(fmt.Sprintf("trace record: %s (%s, %d offers over %d steps), link-rate=%d, capacity=%d, %s",
			f.traceRecord, f.dimsFlag, rec.Offers(), rec.Steps(), f.linkRate, f.capacity, faultDesc), workload, rows...)
		return nil
	}

	// Closed-loop sweep (E21): windows replace rates as the load knob.
	if len(windows) > 0 {
		opt := options[ndmesh.ClosedLoopRow](&f)
		opt.Windows = windows
		if err := check(&f, "closed-loop cells", opt); err != nil {
			return err
		}
		if f.traceRecord != "" {
			c := opt.Cell()
			c.Window = windows[0]
			return recordLive(c, fmt.Sprintf("%s w=%d", patterns[0], windows[0]))
		}
		rows, err := sweep(&f, opt, ndmesh.ClosedLoopSweepWorkers)
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
	opt := options[ndmesh.SaturationRow](&f)
	opt.Rates, opt.Process = rates, f.process
	if err := check(&f, "open-loop cells", opt); err != nil {
		return err
	}
	if f.traceRecord != "" {
		c := opt.Cell()
		c.Rate = rates[0]
		return recordLive(c, fmt.Sprintf("%s @%.3f", patterns[0], rates[0]))
	}
	rows, err := sweep(&f, opt, ndmesh.SaturationSweepWorkers)
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
