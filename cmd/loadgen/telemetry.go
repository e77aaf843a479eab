package main

// Telemetry wiring for loadgen: -timeseries/-heatmap/-hist select the
// internal/probe recorders, -probe-every decimates the flush cadence,
// -debug-addr serves the live census (debug.go). Probes are stateful
// accumulators, so a probed invocation must resolve to a single run — a
// one-cell sweep, one trace replay, or one recording — and every output
// file gets a <file>.manifest.json sidecar describing its schema and the
// exact configuration (plus seed) that produced it.

import (
	"fmt"
	"io"
	"log"
	"os"

	"ndmesh/internal/engine"
	"ndmesh/internal/probe"
)

// probeFlags holds the telemetry-related CLI flags.
type probeFlags struct {
	timeseries, heatmap, hist string
	every                     int
	debugAddr                 string
}

// active reports whether any telemetry output or endpoint was requested.
func (pf probeFlags) active() bool {
	return pf.timeseries != "" || pf.heatmap != "" || pf.hist != "" || pf.debugAddr != ""
}

// telemetry owns the recorders for one probed run and writes their files
// when the run finishes.
type telemetry struct {
	set  *probe.Set
	ts   *probe.TimeSeries
	hm   *probe.Heatmap
	hist *probe.LatencyHist
	snap *probe.Snapshot
	pf   probeFlags
	dims []int
	seed uint64
}

// newTelemetry builds the recorders the flags ask for (nil when none
// are) and starts the debug server if -debug-addr was given. The time
// series is sized to hold every flush of a totalSteps-step run; the
// heatmap to the mesh shape.
func newTelemetry(pf probeFlags, dims []int, totalSteps int, seed uint64) (*telemetry, error) {
	if !pf.active() {
		return nil, nil
	}
	if pf.every < 1 {
		pf.every = 1
	}
	t := &telemetry{set: &probe.Set{}, pf: pf, dims: dims, seed: seed}
	if pf.timeseries != "" {
		t.ts = probe.NewTimeSeries(totalSteps/pf.every + 2)
		t.set.AddProbe(t.ts)
	}
	if pf.heatmap != "" {
		nodes := 1
		for _, d := range dims {
			nodes *= d
		}
		t.hm = probe.NewHeatmap(nodes, 2*len(dims))
		t.set.AddProbe(t.hm)
	}
	if pf.hist != "" {
		t.hist = probe.NewLatencyHist()
		t.set.AddLatency(t.hist)
	}
	if pf.debugAddr != "" {
		t.snap = &probe.Snapshot{}
		t.set.AddProbe(t.snap)
		if err := startDebugServer(pf.debugAddr, t.snap); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// writeOutputs emits every requested CSV plus its manifest sidecar.
// config is the run configuration embedded in each manifest.
func (t *telemetry) writeOutputs(config any) error {
	write := func(path, kind string, schema []string, emit func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		m := probe.Manifest{
			FormatVersion: probe.FormatVersion,
			Kind:          kind,
			Schema:        schema,
			Dims:          t.dims,
			Seed:          t.seed,
			ProbeEvery:    t.pf.every,
			Config:        config,
		}
		return m.Write(path)
	}
	if t.ts != nil {
		if err := write(t.pf.timeseries, "timeseries", probe.TimeSeriesSchema, t.ts.WriteCSV); err != nil {
			return err
		}
		if d := t.ts.Dropped(); d > 0 {
			log.Printf("timeseries ring dropped %d early rows (capacity undersized?)", d)
		}
	}
	if t.hm != nil {
		if err := write(t.pf.heatmap, "heatmap", probe.HeatmapSchema, t.hm.WriteCSV); err != nil {
			return err
		}
	}
	if t.hist != nil {
		if err := write(t.pf.hist, "hist", probe.HistSchema, t.hist.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

// probed runs one telemetry-capable load: it builds the recorders the
// flags ask for, hands run the probe to attach (nil and 0 when telemetry
// is off) and, once run succeeds, writes every requested output with the
// configuration run returns embedded in its manifest: the options value
// minus its hook, probe, pool and trace fields (json:"-") and minus the
// axis fields of another sweep (omitempty).
func probed(pf probeFlags, dims []int, totalSteps int, seed uint64, run func(p engine.Probe, every int) (config any, err error)) error {
	tel, err := newTelemetry(pf, dims, totalSteps, seed)
	if err != nil {
		return err
	}
	var p engine.Probe
	every := 0
	if tel != nil {
		// The defaulted cadence, the one the manifest records.
		p, every = tel.set, tel.pf.every
	}
	config, err := run(p, every)
	if err != nil || tel == nil {
		return err
	}
	return tel.writeOutputs(config)
}

// requireSingleRun refuses an invocation whose telemetry flags are set but
// whose flag combination fans out to more than one run.
func requireSingleRun(pf probeFlags, what string, n int) error {
	if pf.active() && n > 1 {
		return fmt.Errorf("telemetry (-timeseries/-heatmap/-hist/-debug-addr) needs a single run: got %d %s", n, what)
	}
	return nil
}
