// This file is the job-kind table: one row per workload family. The
// decoder, its unknown-kind error, the format check and the runner all read
// the table; nothing else switches on the kind. Adding a kind is adding a
// row (and an e2e byte-identity test).

package server

import (
	"cmp"
	"fmt"
	"io"
	"strings"

	"ndmesh"
	"ndmesh/internal/cliutil"
	"ndmesh/internal/engine"
	"ndmesh/internal/probe"
	"ndmesh/internal/traffic"
)

// Job kinds, one per workload family the library runs.
const (
	KindOpenLoop    = "open-loop"
	KindClosedLoop  = "closed-loop"
	KindReplay      = "replay"
	KindReliability = "reliability"
)

// kind is one row of the table. axes folds the kind's served defaults into
// a bounds-checked spec and applies the server's own caps; check runs the
// library's pre-run check on the options run hands the entry point and
// returns the job's row count; run makes the kind's one library call.
type kind struct {
	name  string
	csv   bool // format=csv is defined for the kind
	axes  func(*Spec) error
	check func(*Spec) (rows int, err error)
	run   func(*Spec, env) error
}

// kinds is in the order the error messages list the names.
var kinds = []kind{
	{KindOpenLoop, true, openLoopAxes, checkSweep[ndmesh.SaturationRow], runSweep(ndmesh.SaturationSweepWorkers, cliutil.OpenLoopCells)},
	{KindClosedLoop, false, closedLoopAxes, checkSweep[ndmesh.ClosedLoopRow], runSweep(ndmesh.ClosedLoopSweepWorkers, nil)},
	{KindReplay, false, replayAxes, checkSweep[ndmesh.ReplayCompareRow], runSweep(ndmesh.ReplayCompareSweepWorkers, nil)},
	{KindReliability, false, reliabilityAxes, checkSweep[ndmesh.ReliabilityRow], runSweep(ndmesh.ReliabilitySweepWorkers, nil)},
}

// The library defaults the rows serve, read once: specs share these slices,
// which nothing downstream writes.
var (
	openLoopDefaults    = ndmesh.DefaultSaturation()
	closedLoopDefaults  = ndmesh.DefaultClosedLoop()
	reliabilityDefaults = ndmesh.DefaultReliability()
	uniform             = []string{"uniform"}
	limited             = []string{"limited"}
)

// kindOf returns the named kind's row; the error lists the table's names.
func kindOf(name string) (*kind, error) {
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i], nil
		}
	}
	names := make([]string, len(kinds))
	for i := range kinds {
		names[i] = kinds[i].name
	}
	if name == "" {
		return nil, fmt.Errorf("spec needs a kind (%s)", strings.Join(names, " | "))
	}
	return nil, fmt.Errorf("unknown kind %q (want %s)", name, strings.Join(names, " | "))
}

// env is what the pipeline hands a kind's run: the job and its row stream
// (the client+replica sink, its flush and the latched write error), its
// cancel poll and clamped fan-out width, the census probe (nil unless the
// spec asked for one) and the response format.
type env struct {
	srv     *Server
	job     *JobStatus
	sink    io.Writer
	flush   func()
	werr    *error
	cancel  func() bool
	workers int
	probe   engine.Probe
	csv     bool
}

// emit writes an encoded row to the stream and counts it on the job
// record. Rows arrive in index order, one at a time (the sweeps' Emit
// contract). The first write error — the client went away mid-stream —
// latches, and the rows after it are dropped.
func (e env) emit(line []byte) {
	if *e.werr == nil {
		if _, err := e.sink.Write(line); err != nil {
			*e.werr = err
		} else {
			e.flush()
		}
	}
	e.srv.mu.Lock()
	e.job.Rows++
	e.srv.mu.Unlock()
}

// defList folds a served default into an omitted list (cmp.Or does the same
// for scalars).
func defList[T any](v *[]T, d []T) {
	if len(*v) == 0 {
		*v = d
	}
}

// sweepDefaults validates the mesh shape and folds in what the three grid
// kinds share, from the calling kind's library defaults d — except patterns,
// served as uniform alone (the library's open- and closed-loop defaults add
// transpose). Defaults are cache-key material: TestSpecDefaultsVsLibrary.
func sweepDefaults[Row any](s *Spec, d *ndmesh.LoadSweepOptions[Row]) error {
	if len(s.Trace) > 0 {
		return fmt.Errorf("only replay specs carry a trace")
	}
	defList(&s.Dims, d.Dims)
	s.Lambda = cmp.Or(s.Lambda, d.Lambda)
	if err := checkMesh(s.Dims, s.Lambda); err != nil {
		return err
	}
	defList(&s.Routers, d.Routers)
	defList(&s.Patterns, uniform)
	if s.Measure == 0 {
		s.Warmup, s.Measure, s.Drain = d.Warmup, d.Measure, d.Drain
	}
	s.LinkRate = cmp.Or(s.LinkRate, d.LinkRate)
	return nil
}

// sweepOptions is the one Spec -> options conversion of every kind's check
// and run: every Spec field with an options field of the same name is
// carried over, the decoded trace of a replay spec is its Replay, and a
// probed spec gets a Probe (run's is the job's).
func sweepOptions[Row any](s *Spec) ndmesh.LoadSweepOptions[Row] {
	opt := ndmesh.LoadSweepOptions[Row]{
		Dims: s.Dims, Lambda: s.Lambda,
		Routers: s.Routers, Patterns: s.Patterns,
		Rates: s.Rates, Windows: s.Windows, FaultRates: s.FaultRates,
		Process: s.Process, Trials: s.Trials, Rate: s.Rate,
		Warmup: s.Warmup, Measure: s.Measure, Drain: s.Drain,
		LinkRate: s.LinkRate, NodeCapacity: s.NodeCapacity,
		FlightTimeout: s.FlightTimeout, RetryBackoff: s.RetryBackoff,
		Bubble: s.Bubble, GridlockWindow: s.GridlockWindow,
		Faults: s.Faults, FaultInterval: s.FaultInterval,
		Clustered: s.Clustered, FaultStart: s.FaultStart,
		FaultRate: s.FaultRate, FaultModel: s.FaultModel,
		FaultShape: s.FaultShape, FaultRepair: s.FaultRepair,
		Replay: s.trace,
	}
	if s.Probe {
		opt.Probe = new(probe.Snapshot)
	}
	return opt
}

// checkSweep is a sweep kind's check: the entry point's own Check, on the
// options runSweep hands it.
func checkSweep[Row any](s *Spec) (int, error) {
	return sweepOptions[Row](s).Check()
}

// runSweep is a sweep kind's run: the spec's options wired to the job's
// env, handed to the kind's library entry point. Rows stream as NDJSON, or
// as CSV lines of csvCells for a kind that defines the format.
func runSweep[Row any](sweep func(ndmesh.LoadSweepOptions[Row], uint64, int) ([]Row, error), csvCells func(Row) []any) func(*Spec, env) error {
	return func(s *Spec, e env) error {
		var encode func(Row) []byte
		if e.csv {
			encode = func(row Row) []byte { return []byte(cliutil.CSVLine(csvCells(row))) }
		} else {
			encode = ndjsonLines[Row]()
		}
		opt := sweepOptions[Row](s)
		opt.Pool, opt.Cancel, opt.Probe = e.srv.pool, e.cancel, e.probe
		opt.Emit = func(_ int, row Row) { e.emit(encode(row)) }
		_, err := sweep(opt, s.Seed, e.workers)
		return err
	}
}

func openLoopAxes(s *Spec) error {
	d := &openLoopDefaults
	if err := sweepDefaults(s, d); err != nil {
		return err
	}
	defList(&s.Rates, d.Rates)
	s.Process = cmp.Or(s.Process, d.Process)
	return nil
}

func closedLoopAxes(s *Spec) error {
	d := &closedLoopDefaults
	if err := sweepDefaults(s, d); err != nil {
		return err
	}
	defList(&s.Windows, d.Windows)
	for _, w := range s.Windows {
		if w > 1<<16 {
			return fmt.Errorf("window %d exceeds %d", w, 1<<16)
		}
	}
	return nil
}

// replayAxes: the trace is the workload — the mesh shape, the phases and
// the fault schedule come from it, and the library refuses, by name, each
// field a replay would not read. The grid axes are refused here, in the
// spec's own terms. The trace's run is bounded as every kind's is: its
// mesh, phases and λ (the spec's, else the trace's). Each router is one
// arm, one row.
func replayAxes(s *Spec) error {
	if len(s.Trace) == 0 {
		return fmt.Errorf("replay spec needs a trace")
	}
	if len(s.Rates) > 0 || len(s.Windows) > 0 || len(s.FaultRates) > 0 || len(s.Patterns) > 0 || s.Trials != 0 {
		return fmt.Errorf("replay specs take no rates, windows, fault_rates, patterns or trials; the trace is the workload")
	}
	var err error
	if s.trace, err = traffic.UnmarshalTrace(s.Trace); err != nil {
		return fmt.Errorf("decoding trace: %w", err)
	}
	tr := s.trace
	if err := checkMesh(tr.Dims, cmp.Or(s.Lambda, tr.Lambda, 1)); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := checkPhases(tr.Warmup, tr.Measure, tr.Drain); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defList(&s.Routers, limited)
	if s.Probe {
		return fmt.Errorf("probe is not supported on replay jobs")
	}
	return nil
}

// reliabilityAxes leaves fault_repair, flight_timeout and retry_backoff off
// where the library default turns them on.
func reliabilityAxes(s *Spec) error {
	d := &reliabilityDefaults
	if err := sweepDefaults(s, d); err != nil {
		return err
	}
	defList(&s.FaultRates, d.FaultRates)
	s.Trials = cmp.Or(s.Trials, d.Trials)
	s.Rate = cmp.Or(s.Rate, d.Rate)
	s.Process = cmp.Or(s.Process, d.Process)
	s.FaultModel = cmp.Or(s.FaultModel, d.FaultModel)
	return nil
}
