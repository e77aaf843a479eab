package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ndmesh"
	"ndmesh/internal/server"
	"ndmesh/internal/traffic"
)

// The traced pass runs after a workload's untraced reps: one more body
// under the tracer plus the direct per-layer measurements, all of it
// outside the end-to-end numbers.

// tracePass is what a workload's traced pass is handed.
type tracePass struct {
	cfg      *config
	workload string
	tr       *tracer
	// walls, lat and ttfr are the untraced reps' body walls and per-request
	// latencies and times to first row, the baseline the traced numbers
	// are set against.
	walls     []time.Duration
	lat, ttfr []time.Duration
}

// ttfrP50 is the untraced requests' median time to the first readable row.
func (tp *tracePass) ttfrP50() sample {
	return fromSummary("server.ttfr_p50_ms", summarize(durations(tp.ttfr, millis)))
}

func (tp *tracePass) untracedWall() time.Duration {
	return time.Duration(summarize(durations(tp.walls, micros)).Median * float64(time.Microsecond))
}

// overhead is the tracing overhead: traced wall over the untraced median.
func (tp *tracePass) overhead(traced time.Duration) sample {
	base := tp.untracedWall()
	return sample{Metric: "trace.overhead_share", Value: ratio(float64(traced-base), float64(base))}
}

func boolSample(metric string, ok bool) sample {
	if ok {
		return sample{Metric: metric, Value: 1}
	}
	return sample{Metric: metric, Value: 0}
}

// trace is the traced pass of a batch workload.
func (b *batch) trace(tp *tracePass) ([]sample, error) {
	quick := tp.cfg.quick
	// The library body once more, its rows time-stamped as they appear.
	t0 := now()
	stamps := []time.Duration{t0}
	rows, libWall, err := b.body(plain, func() { stamps = append(stamps, now()) })
	if err != nil {
		return nil, err
	}
	gaps := []float64{micros(libWall)} // a single-point run is one cell
	if len(stamps) > 1 {
		gaps = gaps[:0]
		for i := 1; i < len(stamps); i++ {
			gaps = append(gaps, micros(stamps[i]-stamps[i-1]))
		}
	}

	// The replica of every cell, compared sweep by sweep with those rows.
	rp := newReplica(tp.tr, len(b.sweeps[0].cells)-1, quick)
	match := true
	id, row := int32(0), 0
	var firstPoint traffic.LoadPoint
	for _, s := range b.sweeps {
		streams := splitN(s.seed, len(s.cells))
		pts := make([]traffic.LoadPoint, len(s.cells))
		for j, c := range s.cells {
			if pts[j], err = rp.run(c, streams[j], id); err != nil {
				return nil, err
			}
			id++
		}
		if row == 0 {
			firstPoint = pts[0]
		}
		n := len(s.cells) / s.cellsPerRow
		match = match && s.match(rows[row:row+n], pts)
		row += n
	}
	traced, cells := tp.tr.total(spCell)

	out := append(rp.metrics(), simCosts(b.sweeps[0].cells[0].dims, quick)...)
	out = append(out,
		sample{Metric: "ndmesh.cell_us_p50", Value: summarize(gaps).Median, N: len(gaps)},
		// Against the untraced reps' median rather than the one stamped run:
		// a difference of two timings needs the steadier minuend.
		sample{Metric: "ndmesh.cell_overhead_us", Value: micros(tp.untracedWall()-rp.loopTime()) / float64(cells)},
		tp.overhead(traced),
		boolSample("trace.replica_match", match))
	first := b.sweeps[0]
	unmarshal, err := traceUnmarshalCost(first.cells[0], first.seed)
	if err != nil {
		return nil, err
	}
	out = append(out, unmarshal)

	k := 3 // bodies per side of a two-body comparison
	if quick {
		k = 1
	}
	switch tp.workload {
	case wStep:
		// Sharding pays or goes: the same body at two shard workers.
		speedup, err := bodyRatio(b, plain, variant{workers: 1, shards: 2}, k)
		if err != nil {
			return nil, err
		}
		probed, err := bodyRatio(b, variant{workers: 1, shards: 1, probe: recorderSet(first.cells[0])}, plain, k)
		if err != nil {
			return nil, err
		}
		out = append(out,
			sample{Metric: "engine.shard2_speedup", Value: speedup},
			sample{Metric: "probe.overhead_share", Value: probed - 1})
		cmd, err := loadgenParity(tp.cfg.root, tp.cfg.outDir, first.cells[0], first.seed, firstPoint)
		if err != nil {
			return nil, err
		}
		out = append(out, cmd...)
	case wGrid:
		speedup, err := bodyRatio(b, plain, variant{workers: 2, shards: 1}, k)
		if err != nil {
			return nil, err
		}
		out = append(out,
			sample{Metric: "par.speedup_w2", Value: speedup},
			sample{Metric: "par.efficiency", Value: speedup / 2})
	}
	return out, nil
}

// tracedRequests wraps every request of one more rep in a span with its
// time-to-first-row as a child, and returns the rep.
func tracedRequests(tr *tracer, n int, do func(k int) response) (wall time.Duration, resps []response) {
	nReq, nFirst := tr.name(spRequest), tr.name(spFirstRow)
	t0 := now()
	for k := 0; k < n; k++ {
		s := tr.open(nReq, -1, int32(k))
		r := do(k)
		tr.close(s)
		tr.spans = append(tr.spans, span{Name: nFirst, Parent: s, ID: int32(k), Count: 1,
			Start: tr.spans[s].Start, Dur: r.ttfr})
		resps = append(resps, r)
	}
	return now() - t0, resps
}

// serviceCounters reads the daemon's own counters: cache, pool, registry.
func (m *meshd) serviceCounters() ([]sample, error) {
	cs, ps := m.srv.CacheStats(), m.srv.Pool().Stats()
	resp, err := m.client.Get(m.ts.URL + "/v1/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []server.JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("decoding /v1/jobs: %w", err)
	}
	refused := 0
	for _, j := range list.Jobs {
		if j.State == server.StateRefused {
			refused++
		}
	}
	return []sample{
		{Metric: "server.cache_hit_share", Value: ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))},
		{Metric: "server.cache_entries", Value: float64(cs.Entries)},
		{Metric: "server.cache_evictions", Value: float64(cs.Evictions)},
		{Metric: "server.registry_jobs", Value: float64(len(list.Jobs))},
		{Metric: "server.refused", Value: float64(refused)},
		{Metric: "ndmesh.pool_hit_share", Value: ratio(float64(ps.Acquired), float64(ps.Acquired+ps.Built))},
		{Metric: "ndmesh.pool_built", Value: float64(ps.Built)},
	}, nil
}

// trace is the traced pass of meshd-miss: one more rep of fresh specs under
// request spans, the same specs straight through the library on a warm
// pool, and their cells through the replica.
func (m *missLoad) trace(tp *tracePass) ([]sample, error) {
	rep := len(tp.walls) // a rep index no untraced rep used
	specs := make([]openLoopSpec, m.perRep)
	for k := range specs {
		specs[k] = m.spec(rep, k)
	}
	traced, resps := tracedRequests(tp.tr, len(specs), func(k int) response {
		return post(m.client, m.url, specs[k].json())
	})
	var reqTotal, gapMax time.Duration
	for _, r := range resps {
		reqTotal += r.lat
		gapMax = max(gapMax, r.gapMax)
	}

	// The work a request contains, without the service around it: the
	// library sweep on a pool as warm as the daemon's.
	pool := ndmesh.NewEnginePool(8)
	if _, _, err := specs[0].direct(pool); err != nil {
		return nil, err
	}
	var directTotal time.Duration
	match := true
	rp := newReplica(tp.tr, len(specs)*specs[0].cellCount()-1, tp.cfg.quick)
	id := int32(0)
	for k, spec := range specs {
		t0 := now()
		rows, want, err := spec.direct(pool)
		directTotal += now() - t0
		if err != nil {
			return nil, err
		}
		match = match && bytes.Equal(resps[k].body, want)
		cells := spec.cells()
		streams := splitN(spec.Seed, len(cells))
		for j, c := range cells {
			pt, err := rp.run(c, streams[j], id)
			if err != nil {
				return nil, err
			}
			match = match && rows[j] == saturationRow(rows[j], pt)
			id++
		}
	}

	asc := sorted(durations(tp.lat, millis))
	out := append(rp.metrics(), simCosts(specs[0].Dims, tp.cfg.quick)...)
	_, cells := tp.tr.total(spCell)
	out = append(out,
		sample{Metric: "ndmesh.cell_us_p50", Value: micros(directTotal) / float64(cells)},
		sample{Metric: "ndmesh.cell_overhead_us", Value: micros(directTotal-rp.loopTime()) / float64(cells)},
		sample{Metric: "server.miss_overhead_share", Value: ratio(float64(reqTotal-directTotal), float64(reqTotal))},
		tp.ttfrP50(),
		sample{Metric: "server.req_p95_ms", Value: quantile(asc, 0.95), N: len(asc)},
		sample{Metric: "server.stream_gap_max_ms", Value: millis(gapMax)},
		tp.overhead(traced),
		boolSample("trace.replica_match", match))
	unmarshal, err := traceUnmarshalCost(specs[0].cells()[0], specs[0].Seed)
	if err != nil {
		return nil, err
	}
	parse, err := parseKeyCost(specs[0].json(), tp.cfg.quick)
	if err != nil {
		return nil, err
	}
	counters, err := m.serviceCounters()
	if err != nil {
		return nil, err
	}
	return append(append(out, unmarshal, parse), counters...), nil
}

// trace is the traced pass of meshd-hit: the hit sequence once more under
// request spans, then again straight into the handler with no socket.
func (h *hitLoad) trace(tp *tracePass) ([]sample, error) {
	match := true
	traced, _ := tracedRequests(tp.tr, len(h.draws), func(i int) response {
		r := post(h.client, h.url, h.specs[h.draws[i]])
		match = match && r.status == http.StatusOK && bytes.Equal(r.body, h.bodies[h.draws[i]])
		return r
	})
	out := handlerHitCosts(h)
	loopback := quantile(sorted(durations(tp.lat, micros)), 0.5)
	out = append(out,
		sample{Metric: "server.net_overhead_us", Value: loopback - out[0].Value},
		tp.ttfrP50(),
		tp.overhead(traced),
		boolSample("trace.replica_match", match))
	parse, err := parseKeyCost(h.specs[0], tp.cfg.quick)
	if err != nil {
		return nil, err
	}
	counters, err := h.serviceCounters()
	if err != nil {
		return nil, err
	}
	return append(append(out, parse), counters...), nil
}

// writeSpans stores every traced pass's spans as JSON, one section per
// workload: a name table and the span tree. In memory there is a span per
// call; on disk the calls of one name under one parent (the ~500 engine
// steps of a cell) are folded into a single span carrying their count and
// summed duration, which keeps the file in kilobytes and loses only the
// order of calls within a cell.
func writeSpans(path string, tracers map[string]*tracer) error {
	type section struct {
		Names []string `json:"names"`
		Spans []span   `json:"spans"`
	}
	doc := make(map[string]section, len(tracers))
	//meshvet:ordered encoding/json writes map keys sorted
	for name, tr := range tracers {
		doc[name] = section{tr.names, tr.folded()}
	}
	return writeJSON(path, doc)
}

// folded merges sibling spans of one name; parents precede their children
// in the list, so one pass can remap the parent indexes as it goes.
func (t *tracer) folded() []span {
	type key struct{ parent, name int32 }
	var out []span
	at := make(map[key]int32)
	remap := make([]int32, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			s.Parent = remap[s.Parent]
		}
		k := key{s.Parent, s.Name}
		j, ok := at[k]
		if !ok || s.Parent < 0 {
			j = int32(len(out))
			at[k] = j
			out = append(out, s)
		} else {
			out[j].Dur += s.Dur
			out[j].Count += s.Count
		}
		remap[i] = j
	}
	return out
}

// writeJSON writes v to path, creating the directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
