package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"ndmesh"
	"ndmesh/internal/engine"
	"ndmesh/internal/rng"
	"ndmesh/internal/server"
	"ndmesh/internal/traffic"
)

// openLoopSpec is the one spec shape both meshd workloads submit: a small
// open-loop grid whose JSON form goes to the daemon and whose option form
// goes to the library for the reference bytes.
type openLoopSpec struct {
	Kind         string    `json:"kind"`
	Dims         []int     `json:"dims"`
	Routers      []string  `json:"routers"`
	Patterns     []string  `json:"patterns"`
	Rates        []float64 `json:"rates"`
	Warmup       int       `json:"warmup"`
	Measure      int       `json:"measure"`
	Drain        int       `json:"drain"`
	NodeCapacity int       `json:"node_capacity"`
	Seed         uint64    `json:"seed"`
	Workers      int       `json:"workers"`
}

func newSpec(seed uint64, quick bool) openLoopSpec {
	s := openLoopSpec{
		Kind: server.KindOpenLoop, Dims: []int{8, 8},
		Routers: []string{"limited", "congested"}, Patterns: []string{"uniform", "transpose"},
		Rates:  []float64{0.05, 0.1, 0.2},
		Warmup: 64, Measure: 256, Drain: 256,
		NodeCapacity: 8, Seed: seed, Workers: 1,
	}
	if quick {
		s.Rates = s.Rates[:1]
		s.Warmup, s.Measure, s.Drain = 8, 32, 32
	}
	return s
}

func (s openLoopSpec) json() []byte {
	data, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding a spec: %v", err)) // plain struct, always marshals
	}
	return data
}

func (s openLoopSpec) cellCount() int { return len(s.Patterns) * len(s.Rates) * len(s.Routers) }

func (s openLoopSpec) steps() int { return s.cellCount() * (s.Warmup + s.Measure + s.Drain) }

// options is the library form of the spec, with the defaults the daemon's
// normalisation folds in (λ=1, link rate 1, bernoulli arrivals).
func (s openLoopSpec) options() ndmesh.SaturationOptions {
	return ndmesh.SaturationOptions{
		Dims: s.Dims, Lambda: 1, Routers: s.Routers, Patterns: s.Patterns, Rates: s.Rates,
		Process: "bernoulli", Warmup: s.Warmup, Measure: s.Measure, Drain: s.Drain,
		LinkRate: 1, NodeCapacity: s.NodeCapacity,
	}
}

// cells lists the spec's load runs in the sweep's job order.
func (s openLoopSpec) cells() []cell {
	var out []cell
	ph := traffic.Phases{Warmup: s.Warmup, Measure: s.Measure, Drain: s.Drain}
	for _, p := range s.Patterns {
		for _, rate := range s.Rates {
			for _, k := range s.Routers {
				out = append(out, cell{dims: s.Dims, lambda: 1, router: k, pattern: p, rate: rate, ph: ph,
					ctn: engine.ContentionConfig{LinkRate: 1, NodeCapacity: s.NodeCapacity}})
			}
		}
	}
	return out
}

// direct runs the spec through the library (pool may be nil) and renders
// the rows as the daemon streams them: one JSON object per line.
func (s openLoopSpec) direct(pool *ndmesh.EnginePool) ([]ndmesh.SaturationRow, []byte, error) {
	opt := s.options()
	opt.Pool = pool
	rows, err := ndmesh.SaturationSweepWorkers(opt, s.Seed, 1)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return nil, nil, err
		}
	}
	return rows, buf.Bytes(), nil
}

// meshd is one daemon instance behind a loopback listener and the single
// closed-loop client that drives it: one keep-alive connection, the next
// request sent only when the previous body has been read to its end. One
// client because the host has two cores and the server needs the other.
type meshd struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	url    string
}

func newMeshd() *meshd {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &meshd{srv: srv, ts: ts, client: &http.Client{Transport: tr}, url: ts.URL + "/v1/jobs"}
}

func (m *meshd) close() {
	m.client.CloseIdleConnections()
	m.ts.Close()
}

// response is what the client observed of one POST.
type response struct {
	status int
	body   []byte
	// lat is send -> last body byte, ttfr send -> first row readable,
	// gapMax the longest wait between consecutive rows.
	lat, ttfr, gapMax time.Duration
	err               error
}

// post submits one spec and reads the NDJSON stream line by line.
func post(client *http.Client, url string, spec []byte) response {
	t0 := now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(spec))
	if err != nil {
		return response{err: err, lat: now() - t0}
	}
	defer resp.Body.Close()
	out := response{status: resp.StatusCode}
	br := bufio.NewReader(resp.Body)
	last := t0
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			t := now()
			if out.ttfr == 0 {
				out.ttfr = t - t0
			} else if t-last > out.gapMax {
				out.gapMax = t - last
			}
			last = t
			out.body = append(out.body, line...)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			out.err = err
			break
		}
	}
	out.lat = now() - t0
	return out
}

// ok applies the per-request checks: transport success, HTTP 200, a body
// byte-identical to want (when the reference is known) and flight
// conservation on every row.
func (r response) ok(want []byte, wantRows int) bool {
	if r.err != nil || r.status != http.StatusOK {
		return false
	}
	if want != nil && !bytes.Equal(r.body, want) {
		return false
	}
	rows := 0
	dec := json.NewDecoder(bytes.NewReader(r.body))
	for dec.More() {
		var row ndmesh.SaturationRow
		if dec.Decode(&row) != nil || !conserves(row) {
			return false
		}
		rows++
	}
	return rows == wantRows
}

// --- meshd-miss ----------------------------------------------------------

// missLoad is the service write path: every request is a spec the daemon
// has never seen, so each one decodes, keys, admits, checks a warm
// simulation out of the pool, streams rows through the sequencer and stores
// the replica in the cache.
type missLoad struct {
	*meshd
	seed     uint64
	perRep   int
	proto    openLoopSpec
	wantRep0 [][]byte // reference bodies of rep 0's requests (direct library sweeps)
}

func newMissLoad(seed uint64, quick bool) (*missLoad, error) {
	m := &missLoad{meshd: newMeshd(), seed: seed, perRep: 16, proto: newSpec(0, quick)}
	if quick {
		m.perRep = 4
	}
	// Warm the connection and the engine pool: the reps measure a
	// warm-pool miss, the steady state of a daemon that has served before.
	for i := 0; i < 2; i++ {
		if r := post(m.client, m.url, m.spec(-1, i).json()); !r.ok(nil, m.proto.cellCount()) {
			m.close()
			return nil, fmt.Errorf("meshd-miss: warm-up request failed (status %d, err %v)", r.status, r.err)
		}
	}
	for k := 0; k < m.perRep; k++ {
		_, want, err := m.spec(0, k).direct(nil)
		if err != nil {
			m.close()
			return nil, err
		}
		m.wantRep0 = append(m.wantRep0, want)
	}
	return m, nil
}

// spec is request k of rep i; every (rep, k) pair has its own seed, so no
// request of a run can hit the cache. Rep -1 is the warm-up.
func (m *missLoad) spec(rep, k int) openLoopSpec {
	s := m.proto
	s.Seed = rng.New(m.seed ^ uint64(rep+2)<<32 ^ uint64(k)).Uint64()
	return s
}

func (m *missLoad) nominalSteps() int { return m.perRep * m.proto.steps() }
func (m *missLoad) opsPerRep() int    { return m.perRep }

func (m *missLoad) rep(i int) repOut {
	out := repOut{}
	h := sha256.New()
	specs := make([][]byte, m.perRep)
	for k := range specs {
		specs[k] = m.spec(i, k).json()
	}
	t0 := now()
	for k, spec := range specs {
		r := post(m.client, m.url, spec)
		var want []byte
		if i == 0 {
			want = m.wantRep0[k]
		}
		if !r.ok(want, m.proto.cellCount()) {
			out.failed++
		}
		out.lat = append(out.lat, r.lat)
		out.ttfr = append(out.ttfr, r.ttfr)
		h.Write(r.body)
	}
	out.wall = now() - t0
	h.Sum(out.digest[:0])
	return out
}

// --- meshd-hit -----------------------------------------------------------

// hitLoad is the service read path: a fixed set of keys is computed once in
// set-up and every timed request is a repeat, so the daemon decodes, keys,
// looks the body up and registers the job — no engine runs at all.
type hitLoad struct {
	*meshd
	specs  [][]byte
	bodies [][]byte // the miss bodies, verified against the library in set-up
	draws  []int    // the rep's key sequence, zipf(1.1) over the keys
	steps  int      // nominal simulated steps one served body stands for
}

func newHitLoad(seed uint64, quick bool) (*hitLoad, error) {
	keys, perRep := 16, 4000
	if quick {
		keys, perRep = 4, 300
	}
	h := &hitLoad{meshd: newMeshd()}
	r := rng.New(seed)
	for k := 0; k < keys; k++ {
		spec := newSpec(r.Uint64(), quick)
		h.steps = spec.steps()
		_, want, err := spec.direct(nil)
		if err != nil {
			h.close()
			return nil, err
		}
		miss := post(h.client, h.url, spec.json())
		if !miss.ok(want, spec.cellCount()) {
			h.close()
			return nil, fmt.Errorf("meshd-hit: pre-warm body of key %d differs from the library sweep (status %d, err %v)", k, miss.status, miss.err)
		}
		h.specs = append(h.specs, spec.json())
		h.bodies = append(h.bodies, miss.body)
	}
	// zipf(1.1): P(k) ~ 1/(k+1)^1.1, drawn by inverting the cumulative
	// weights. A few keys take most of the traffic, as popular specs do.
	cum := make([]float64, keys)
	total := 0.0
	for k := range cum {
		total += 1 / math.Pow(float64(k+1), 1.1)
		cum[k] = total
	}
	for i := 0; i < perRep; i++ {
		u := r.Float64() * total
		k := 0
		for k < keys-1 && cum[k] < u {
			k++
		}
		h.draws = append(h.draws, k)
	}
	return h, nil
}

func (h *hitLoad) nominalSteps() int { return len(h.draws) * h.steps }
func (h *hitLoad) opsPerRep() int    { return len(h.draws) }

func (h *hitLoad) rep(int) repOut {
	out := repOut{lat: make([]time.Duration, 0, len(h.draws)), ttfr: make([]time.Duration, 0, len(h.draws))}
	sum := sha256.New()
	t0 := now()
	for _, k := range h.draws {
		r := post(h.client, h.url, h.specs[k])
		// A hit must be the miss body byte for byte; the miss body's rows
		// were checked in set-up, so equality covers them.
		if r.err != nil || r.status != http.StatusOK || !bytes.Equal(r.body, h.bodies[k]) {
			out.failed++
		}
		out.lat = append(out.lat, r.lat)
		out.ttfr = append(out.ttfr, r.ttfr)
		sum.Write(r.body)
	}
	out.wall = now() - t0
	sum.Sum(out.digest[:0])
	return out
}
