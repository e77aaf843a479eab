package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"ndmesh"
	"ndmesh/internal/cliutil"
	"ndmesh/internal/grid"
	"ndmesh/internal/probe"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
	"ndmesh/internal/server"
	"ndmesh/internal/traffic"
)

// This file holds the per-layer measurements that are direct calls into a
// layer's public functions rather than spans of the load loop.

// medianOf times fn k times and returns the median.
func medianOf(k int, fn func()) time.Duration {
	vs := make([]float64, k)
	for i := range vs {
		t0 := now()
		fn()
		vs[i] = float64(now() - t0)
	}
	return time.Duration(summarize(vs).Median)
}

// decideCosts times Router.Decide for the five routers on a fixed sample of
// (current, destination) pairs over the stack's end state: the mesh
// statuses, information store and load view the workload left behind.
func decideCosts(st *stack, quick bool) []sample {
	pairs, rounds := 2048, 9
	if quick {
		pairs, rounds = 256, 3
	}
	r := rng.New(0xdec1de) // a fixed sample: the probe must not vary with -seed
	n := st.shape.NumNodes()
	msgs := make([]*route.Message, 0, pairs)
	for len(msgs) < pairs {
		cur, dst := grid.NodeID(r.Intn(n)), grid.NodeID(r.Intn(n))
		if cur != dst {
			msgs = append(msgs, route.NewMessage(cur, dst))
		}
	}
	var out []sample
	for _, name := range []string{"limited", "congested", "dor", "blind", "oracle"} {
		rtr, err := route.ByName(name)
		if err != nil {
			panic(err) // the five names are the library's own
		}
		ctx := route.Context{M: st.fab, Load: st.eng, Policy: route.LowestAxis}
		if name != "blind" {
			ctx.Store = st.model.Store
		}
		per := medianOf(rounds, func() {
			for _, m := range msgs {
				rtr.Decide(&ctx, m)
			}
		})
		out = append(out, sample{Metric: "route.decide_ns." + name, Value: float64(per) / float64(len(msgs))})
	}
	return out
}

// simCosts times the facade's simulation construction and reset.
func simCosts(dims []int, quick bool) []sample {
	k := 5
	if quick {
		k = 2
	}
	build := func(d []int) float64 {
		return micros(medianOf(k, func() {
			if _, err := ndmesh.NewSimulation(ndmesh.Config{Dims: d}); err != nil {
				panic(err) // fixed, valid shapes
			}
		}))
	}
	// Reset is timed on a simulation that has lived through faults and
	// steps, as a pooled one has when a sweep hands it back.
	sim := ndmesh.MustSimulation(ndmesh.Config{Dims: dims})
	mid := make(ndmesh.Coord, len(dims))
	for i, d := range dims {
		mid[i] = d / 2
	}
	resets := make([]float64, k)
	for i := range resets {
		if err := sim.ScheduleFault(1, mid); err != nil {
			panic(err) // the centre of the mesh is a valid coordinate
		}
		sim.RunSteps(16)
		t0 := now()
		sim.Reset()
		resets[i] = micros(now() - t0)
	}
	return []sample{
		{Metric: "ndmesh.sim_build_us.8x8", Value: build([]int{8, 8})},
		{Metric: "ndmesh.sim_build_us.32x32", Value: build([]int{32, 32})},
		{Metric: "ndmesh.sim_reset_us", Value: summarize(resets).Median},
	}
}

// loadOptions is the single-run form of a cell, for the library entry
// points that take one (recording a trace, cmd/loadgen parity).
func (c cell) loadOptions(seed uint64) ndmesh.LoadOptions {
	return ndmesh.LoadOptions{
		Dims: c.dims, Lambda: c.lambda, Router: c.router, Pattern: c.pattern,
		Process: "bernoulli", Rate: c.rate, Window: c.window,
		Warmup: c.ph.Warmup, Measure: c.ph.Measure, Drain: c.ph.Drain,
		LinkRate: c.ctn.LinkRate, NodeCapacity: c.ctn.NodeCapacity,
		FlightTimeout: c.ctn.FlightTimeout, RetryBackoff: c.backoff,
		Bubble: c.ctn.Bubble, GridlockWindow: c.ctn.GridlockWindow,
		FaultRate: c.faultRate, FaultRepair: c.faultRepair, Seed: seed,
	}
}

// traceUnmarshalCost records the cell's offered workload through the
// library, and times decoding the binary trace.
func traceUnmarshalCost(c cell, seed uint64) (sample, error) {
	opt := c.loadOptions(seed)
	opt.Record = &traffic.Trace{}
	if _, err := ndmesh.LoadRun(opt); err != nil {
		return sample{}, err
	}
	data := opt.Record.Marshal()
	var err error
	d := medianOf(5, func() {
		if _, e := traffic.UnmarshalTrace(data); e != nil {
			err = e
		}
	})
	return sample{Metric: "traffic.trace_unmarshal_us", Value: micros(d)}, err
}

// bodyRatio runs the body k times under each of two variants, alternating,
// and returns median(a) / median(b).
func bodyRatio(b *batch, a, v variant, k int) (float64, error) {
	var ta, tv []float64
	for i := 0; i < k; i++ {
		for _, side := range []struct {
			v  variant
			to *[]float64
		}{{a, &ta}, {v, &tv}} {
			_, wall, err := b.body(side.v, nil)
			if err != nil {
				return 0, err
			}
			*side.to = append(*side.to, float64(wall))
		}
	}
	return summarize(ta).Median / summarize(tv).Median, nil
}

// recorderSet is the full probe fan-out cmd/loadgen attaches with all of
// -timeseries, -heatmap and -hist.
func recorderSet(c cell) *probe.Set {
	nodes := 1
	for _, d := range c.dims {
		nodes *= d
	}
	set := &probe.Set{}
	set.AddProbe(probe.NewTimeSeries(c.ph.Total() + 2))
	set.AddProbe(probe.NewHeatmap(nodes, 2*len(c.dims)))
	set.AddLatency(probe.NewLatencyHist())
	return set
}

// loadgenParity builds cmd/loadgen, runs the cell through it and compares
// its CSV row with the in-process point's.
func loadgenParity(root, outDir string, c cell, seed uint64, pt traffic.LoadPoint) ([]sample, error) {
	bin := filepath.Join(outDir, "loadgen")
	build := exec.Command("go", "build", "-o", bin, "./cmd/loadgen")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building cmd/loadgen: %v\n%s", err, out)
	}
	dims := make([]string, len(c.dims))
	for i, d := range c.dims {
		dims[i] = fmt.Sprint(d)
	}
	args := []string{"-csv", "-workers", "1",
		"-dims", strings.Join(dims, "x"), "-routers", c.router, "-patterns", c.pattern,
		"-rates", fmt.Sprint(c.rate), "-lambda", fmt.Sprint(c.lambda),
		"-warmup", fmt.Sprint(c.ph.Warmup), "-measure", fmt.Sprint(c.ph.Measure), "-drain", fmt.Sprint(c.ph.Drain),
		"-seed", fmt.Sprint(seed)}
	var stdout bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	t0 := now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("running loadgen: %v", err)
	}
	wall := now() - t0
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	want := cliutil.CSVLine(cliutil.OpenLoopCells(saturationRow(
		ndmesh.SaturationRow{Pattern: c.pattern, Router: c.router}, pt)))
	parity := 0.0
	if lines[len(lines)-1]+"\n" == want {
		parity = 1
	}
	return []sample{
		{Metric: "cmd.loadgen_cell_s", Value: seconds(wall)},
		{Metric: "cmd.parity_ok", Value: parity},
	}, nil
}

// parseKeyCost times the daemon's strict decode plus canonical key.
func parseKeyCost(spec []byte, quick bool) (sample, error) {
	n := 2000
	if quick {
		n = 200
	}
	var err error
	d := medianOf(5, func() {
		for i := 0; i < n; i++ {
			s, e := server.ParseSpec(spec)
			if e != nil {
				err = e
				return
			}
			_ = s.Key()
		}
	})
	return sample{Metric: "server.parse_key_us", Value: micros(d) / float64(n)}, err
}

// handlerHitCosts serves the hit sequence through Handler().ServeHTTP on a
// recorder — the daemon's read path with no socket under it.
func handlerHitCosts(h *hitLoad) []sample {
	handler := h.srv.Handler()
	lat := make([]float64, len(h.draws))
	for i, k := range h.draws {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(h.specs[k]))
		rec := httptest.NewRecorder()
		t0 := now()
		handler.ServeHTTP(rec, req)
		lat[i] = micros(now() - t0)
	}
	asc := sorted(lat)
	return []sample{
		{Metric: "server.handler_hit_us_p50", Value: quantile(asc, 0.50), N: len(asc)},
		{Metric: "server.handler_hit_us_p99", Value: quantile(asc, 0.99), N: len(asc)},
		{Metric: "server.handler_hit_us_p999", Value: quantile(asc, 0.999), N: len(asc)},
	}
}
