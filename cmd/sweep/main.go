// sweep regenerates the experiment tables (README.md "Command-line tools"):
// the convergence, degradation, λ-ablation, memory, oscillation and traffic
// studies (E14-E18), the randomized validation of Theorems 3-5 (E11-E13)
// and the load studies (E19-E23). Each experiment prints one
// aligned table; -csv switches to comma-separated output.
//
// Examples:
//
//	sweep -exp all
//	sweep -exp degradation -trials 100 -seed 7
//	sweep -exp theorems -trials 200
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"ndmesh"
	"ndmesh/internal/cliutil"
	"ndmesh/internal/stats"
)

// config is what the flags hand every experiment.
type config struct {
	seed            uint64
	trials, workers int
	progress        func(done, total int)
}

// experiments is the one ordered list behind -exp: its names are the
// flag's help text and the valid values, and its order is the order
// "-exp all" prints the tables in.
var experiments = []struct {
	name  string
	table func(config) (*stats.Table, error)
}{
	{"convergence", convergenceTable},
	{"degradation", degradationTable},
	{"lambda", lambdaTable},
	{"memory", memoryTable},
	{"oscillation", oscillationTable},
	{"theorems", theoremsTable},
	{"traffic", trafficTable},
	{"saturation", saturationTable},
	{"congestion", congestionTable},
	{"closedloop", closedLoopTable},
	{"gridlock", gridlockTable},
	{"reliability", reliabilityTable},
}

// expNames renders the valid -exp values for the help text and the
// unknown-name error.
func expNames() string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), " | ")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command behind main: it parses args and prints the
// selected experiments' tables to stdout (flag errors and usage go to
// stderr), so main_test.go drives the CLI in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment: "+expNames())
		seed     = fs.Uint64("seed", 1, "random seed")
		trials   = fs.Int("trials", 0, "trials per cell (0 = experiment default)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		workers  = fs.Int("workers", 0, "parallel trial workers (0 = all CPUs); results are identical for every value")
		progress = fs.Bool("progress", false, "print per-cell completion of the load experiments (saturation/congestion/closedloop/gridlock) to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := config{seed: *seed, trials: *trials, workers: *workers}
	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		cfg.progress = cliutil.Progress(*progress, "sweep "+e.name)
		tab, err := e.table(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if *csv {
			fmt.Fprint(stdout, tab.CSV())
		} else {
			fmt.Fprintln(stdout, tab.String())
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want %s)", *exp, expNames())
	}
	return nil
}

func trafficTable(cfg config) (*stats.Table, error) {
	tab := stats.NewTable("E18 traffic: 24 concurrent messages, 16x16, 8 dynamic faults",
		"interval", "router", "arrived%", "extra (mean)", "backtracks", "max steps")
	for _, interval := range []int{4, 16} {
		rows, err := ndmesh.TrafficSweepWorkers([]int{16, 16}, 24, 8, interval, cfg.seed, cfg.workers)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			tab.AddRow(interval, r.Router, r.ArrivedPct, r.MeanExtra, r.TotalBack, r.MaxSteps)
		}
	}
	return tab, nil
}

// The xxxOptions functions are the load experiments' configurations, apart
// from the tables so main_test.go can run the library on the same ones.

func congestionOptions(cfg config) ndmesh.CongestionShiftOptions {
	opt := ndmesh.DefaultCongestionShift()
	opt.Progress = cfg.progress
	return opt
}

func congestionTable(cfg config) (*stats.Table, error) {
	rows, summaries, err := ndmesh.CongestionShiftSweepWorkers(congestionOptions(cfg), cfg.seed, cfg.workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("E20 congestion shift: 8x8, capacity 8, limited vs congested on identical scenarios",
		"pattern", "offered", "lim acc", "cong acc", "lim drop", "cong drop", "lim lat", "cong lat", "shift")
	for _, r := range rows {
		tab.AddRow(r.Pattern, fmt.Sprintf("%.2f", r.OfferedRate),
			fmt.Sprintf("%.3f", r.LimitedAccepted), fmt.Sprintf("%.3f", r.CongestedAccepted),
			r.LimitedDropped, r.CongestedDropped, r.LimitedLatMean, r.CongestedLatMean, "")
	}
	for _, s := range summaries {
		tab.AddRow(s.Pattern, "peak",
			fmt.Sprintf("%.3f", s.LimitedSatAccepted), fmt.Sprintf("%.3f", s.CongestedSatAccepted),
			"", "", "", "", fmt.Sprintf("%+.1f%%", s.ShiftPct))
	}
	return tab, nil
}

func closedLoopOptions(cfg config) ndmesh.ClosedLoopOptions {
	opt := ndmesh.DefaultClosedLoop()
	opt.Progress = cfg.progress
	return opt
}

func closedLoopTable(cfg config) (*stats.Table, error) {
	rows, err := ndmesh.ClosedLoopSweepWorkers(closedLoopOptions(cfg), cfg.seed, cfg.workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("E21 closed loop: 8x8, window-size vs delivered throughput/latency (population-limited)",
		"pattern", "router", "window", "inj rate", "accepted", "delivered", "unfin", "lat mean", "p50", "p99")
	for _, r := range rows {
		tab.AddRow(r.Pattern, r.Router, r.Window, fmt.Sprintf("%.3f", r.InjectedRate),
			fmt.Sprintf("%.3f", r.AcceptedRate), r.Delivered, r.Unfinished, r.LatMean, r.LatP50, r.LatP99)
	}
	return tab, nil
}

func gridlockOptions(cfg config) ndmesh.GridlockOptions {
	opt := ndmesh.DefaultGridlock()
	opt.Progress = cfg.progress
	return opt
}

func gridlockTable(cfg config) (*stats.Table, error) {
	rows, err := ndmesh.GridlockSweepWorkers(gridlockOptions(cfg), cfg.seed, cfg.workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("E22 gridlock phase diagram: 8x8 closed loop, finite buffers, escape mechanism as the comparison axis",
		"pattern", "window", "cap", "faults", "mechanism", "gridlocked", "gstep", "recovery", "accepted", "delivered", "timedout", "retried", "unfin", "lat mean", "p99")
	for _, r := range rows {
		gl := ""
		if r.Gridlocked {
			gl = "GRIDLOCK"
		}
		tab.AddRow(r.Pattern, r.Window, r.Capacity, r.Faults, r.Mechanism, gl,
			r.GridlockStep, r.RecoverySteps, fmt.Sprintf("%.3f", r.AcceptedRate),
			r.Delivered, r.TimedOut, r.Retried, r.Unfinished, r.LatMean, r.LatP99)
	}
	return tab, nil
}

func reliabilityOptions(cfg config) ndmesh.ReliabilityOptions {
	opt := ndmesh.DefaultReliability()
	opt.Routers = []string{"limited", "congested"}
	if cfg.trials > 0 {
		opt.Trials = cfg.trials
	}
	opt.Progress = cfg.progress
	return opt
}

func reliabilityTable(cfg config) (*stats.Table, error) {
	rows, err := ndmesh.ReliabilitySweepWorkers(reliabilityOptions(cfg), cfg.seed, cfg.workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("E23 reliability: 8x8 open loop under a live fault process, Monte-Carlo per cell",
		"pattern", "rate", "router", "trials", "delivered%", "unreach%", "lost%", "timedout%", "accepted", "rdrop", "failed", "recovered", "glk", "lat mean", "p99")
	for _, r := range rows {
		tab.AddRow(r.Pattern, fmt.Sprintf("%.3f", r.FaultRate), r.Router, r.Trials,
			fmt.Sprintf("%.3f", r.DeliveredFrac), fmt.Sprintf("%.3f", r.UnreachableFrac),
			fmt.Sprintf("%.3f", r.LostFrac), fmt.Sprintf("%.3f", r.TimedOutFrac),
			fmt.Sprintf("%.3f", r.AcceptedRate), r.RetryDropped, fmt.Sprintf("%.1f", r.MeanFailed),
			fmt.Sprintf("%.1f", r.MeanRecovered), r.GridlockedTrials, r.LatMean, r.LatP99Mean)
	}
	return tab, nil
}

func saturationOptions(cfg config) ndmesh.SaturationOptions {
	opt := ndmesh.DefaultSaturation()
	opt.Routers = []string{"limited", "congested", "blind"}
	opt.Rates = []float64{0.05, 0.15, 0.3}
	opt.Warmup, opt.Measure, opt.Drain = 32, 128, 128
	opt.Progress = cfg.progress
	return opt
}

func saturationTable(cfg config) (*stats.Table, error) {
	rows, err := ndmesh.SaturationSweepWorkers(saturationOptions(cfg), cfg.seed, cfg.workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("E19 saturation: 8x8, contention (link-rate 1), Bernoulli injection",
		"pattern", "router", "offered", "accepted", "delivered", "unfin", "lat mean", "p50", "p99")
	for _, r := range rows {
		tab.AddRow(r.Pattern, r.Router, fmt.Sprintf("%.2f", r.OfferedRate), fmt.Sprintf("%.3f", r.AcceptedRate),
			r.Delivered, r.Unfinished, r.LatMean, r.LatP50, r.LatP99)
	}
	return tab, nil
}

func convergenceTable(cfg config) (*stats.Table, error) {
	rows, err := ndmesh.ConvergenceSweepWorkers([][]int{
		{16, 16}, {24, 24}, {10, 10, 10}, {6, 6, 6, 6}, {5, 5, 5, 5, 5},
	}, 4, cfg.seed, cfg.workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("E14 convergence: one growing block per mesh (rounds)",
		"mesh", "N", "fault#", "e_max", "a_i", "b_i", "c_i", "affected", "records")
	for _, r := range rows {
		tab.AddRow(r.Dims, r.N, r.FaultIndex, r.EMax, r.ARounds, r.BRounds, r.CRounds, r.Affected, r.Records)
	}
	return tab, nil
}

func degradationTable(cfg config) (*stats.Table, error) {
	opt := ndmesh.DefaultDegradation()
	if cfg.trials > 0 {
		opt.Trials = cfg.trials
	}
	rows, err := ndmesh.DegradationSweepWorkers(opt, cfg.seed, cfg.workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable(
		fmt.Sprintf("E15 degradation: %v, F=%d, %d trials/cell (routing under dynamic faults)",
			opt.Dims, opt.Faults, opt.Trials),
		"interval", "router", "success%", "steps", "extra", "backtracks", "p95 extra")
	for _, r := range rows {
		tab.AddRow(r.Interval, r.Router, r.SuccessPct, r.MeanSteps, r.MeanExtra, r.MeanBack, r.P95Extra)
	}
	return tab, nil
}

func lambdaTable(cfg config) (*stats.Table, error) {
	trials := cfg.trials
	if trials == 0 {
		trials = 30
	}
	rows, err := ndmesh.LambdaSweepWorkers([]int{16, 16}, []int{1, 2, 4, 8}, trials, cfg.seed, cfg.workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable(
		fmt.Sprintf("E15b lambda ablation: 16x16, clustered faults under the message, %d trials", trials),
		"lambda", "router", "success%", "extra hops", "backtracks")
	for _, r := range rows {
		tab.AddRow(r.Lambda, r.Router, r.SuccessPct, r.MeanExtra, r.MeanBack)
	}
	return tab, nil
}

func memoryTable(cfg config) (*stats.Table, error) {
	rows, err := ndmesh.MemorySweepWorkers([][]int{
		{16, 16}, {32, 32}, {10, 10, 10}, {6, 6, 6, 6},
	}, []int{2, 4, 8}, cfg.seed, cfg.workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("E16 memory: limited-information records vs. global tables",
		"mesh", "N", "F", "records", "nodes w/ info", "% of N", "global N*F")
	for _, r := range rows {
		tab.AddRow(r.Dims, r.N, r.Faults, r.Records, r.NodesWithInfo, r.NodePct, r.GlobalEntries)
	}
	return tab, nil
}

func oscillationTable(cfg config) (*stats.Table, error) {
	trials := cfg.trials
	if trials == 0 {
		trials = 20
	}
	rows, err := ndmesh.OscillationSweepWorkers([]int{16, 16}, 6, []int{2, 4, 8, 16, 32}, trials, cfg.seed, cfg.workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable(
		fmt.Sprintf("E17 oscillation/locality: 16x16, 6 clustered faults, %d trials", trials),
		"interval", "affected/event", "a rounds (mean)", "a rounds (max)")
	for _, r := range rows {
		tab.AddRow(r.Interval, r.MeanAffected, r.MeanARounds, r.MaxARounds)
	}
	return tab, nil
}

func theoremsTable(cfg config) (*stats.Table, error) {
	trials := cfg.trials
	if trials == 0 {
		trials = 60
	}
	tab := stats.NewTable(
		fmt.Sprintf("E11-E13 theorem validation: randomized conforming schedules, %d trials/mesh", trials),
		"mesh", "trials", "safe", "unsafe", "skipped", "arrived", "viol T3", "viol T4", "viol T5", "extra (mean)", "bound (mean)")
	for _, dims := range [][]int{{16, 16}, {10, 10, 10}} {
		rep, err := ndmesh.TheoremSweepWorkers(dims, trials, cfg.seed, cfg.workers)
		if err != nil {
			return nil, err
		}
		tab.AddRow(strings.Trim(fmt.Sprint(dims), "[]"), rep.Trials, rep.SafeTrials, rep.UnsafeTrials,
			rep.PremiseSkipped, rep.Arrived, rep.Violations3, rep.Violations4, rep.Violations5,
			rep.MeanExtraHops, rep.MeanDetourBound)
	}
	return tab, nil
}
