package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"ndmesh"
	"ndmesh/internal/cliutil"
	"ndmesh/internal/traffic"
)

// submit POSTs a spec and returns the response with its full body read.
func submit(t testing.TB, ts *httptest.Server, query, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// streamAtEveryWidth is the worker matrix every sweep kind is streamed at:
// base (a spec missing its closing brace) is submitted serial, at a fixed
// parallel width and at whatever the host offers, and every width must
// stream the batch bytes, computed ONCE by the caller, as a job of one cell
// per row. A fresh server per width: the cache would otherwise serve later
// widths from the first run and never touch an engine.
func streamAtEveryWidth(t *testing.T, base string, want []byte) {
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			srv := New(Config{MaxConcurrent: 2})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			resp, got := submit(t, ts, "", fmt.Sprintf(`%s,"workers":%d}`, base, w))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, got)
			}
			if h := resp.Header.Get("X-Meshd-Cache"); h != "miss" {
				t.Fatalf("X-Meshd-Cache = %q, want miss", h)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("streamed body differs from batch rows\n got: %s\nwant: %s", got, want)
			}
			jr, err := http.Get(ts.URL + "/v1/jobs/" + resp.Header.Get("X-Meshd-Job"))
			if err != nil {
				t.Fatal(err)
			}
			var st JobStatus
			err = json.NewDecoder(jr.Body).Decode(&st)
			jr.Body.Close()
			if rows := bytes.Count(want, []byte("\n")); err != nil || st.Cells != rows || st.Rows != rows {
				t.Fatalf("job status %+v (%v), want %d cells and rows", st, err, rows)
			}
			if err := srv.Pool().VerifyClean(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestE2EOpenLoop streams an E19 grid over HTTP at every width and diffs
// the NDJSON body against the batch sweep's rows, byte for byte.
func TestE2EOpenLoop(t *testing.T) {
	base := `{"kind":"open-loop","dims":[4,4],"patterns":["uniform","transpose"],"rates":[0.05,0.2],"warmup":8,"measure":24,"drain":32,"node_capacity":4,"seed":42`
	spec, err := ParseSpec([]byte(base + `}`))
	if err != nil {
		t.Fatal(err)
	}
	opt := sweepOptions[ndmesh.SaturationRow](spec)
	rows, err := ndmesh.SaturationSweepWorkers(opt, spec.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, r := range rows {
		want.Write(encodeNDJSON(r))
	}
	streamAtEveryWidth(t, base, want.Bytes())
}

// TestE2EOpenLoopCSV diffs the daemon's CSV stream against the exact
// bytes loadgen's -csv table emits for the same sweep — the shared
// cliutil formatting is what the CI smoke job's whole-file diff rides on.
func TestE2EOpenLoopCSV(t *testing.T) {
	body := `{"kind":"open-loop","dims":[4,4],"rates":[0.05,0.2],"warmup":8,"measure":24,"drain":32,"seed":7}`
	spec, err := ParseSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ndmesh.SaturationSweepWorkers(sweepOptions[ndmesh.SaturationRow](spec), spec.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := cliutil.OpenLoopTable("", rows).CSV()

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, got := submit(t, ts, "?format=csv", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if string(got) != want {
		t.Fatalf("CSV stream differs from loadgen's table:\n got: %q\nwant: %q", got, want)
	}

	// CSV is defined for the open-loop table only.
	resp, _ = submit(t, ts, "?format=csv", `{"kind":"closed-loop"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("closed-loop CSV got status %d, want 400", resp.StatusCode)
	}
}

// TestE2EClosedLoop covers the E21 workload kind at every width.
func TestE2EClosedLoop(t *testing.T) {
	base := `{"kind":"closed-loop","dims":[4,4],"windows":[1,2,4],"warmup":8,"measure":24,"drain":32,"seed":42`
	spec, err := ParseSpec([]byte(base + `}`))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ndmesh.ClosedLoopSweepWorkers(sweepOptions[ndmesh.ClosedLoopRow](spec), spec.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, r := range rows {
		want.Write(encodeNDJSON(r))
	}
	streamAtEveryWidth(t, base, want.Bytes())
}

// TestE2EReliability covers the E23 workload kind: per-cell rows stream
// as their last Monte-Carlo trial lands, still in index order, still the
// batch bytes.
func TestE2EReliability(t *testing.T) {
	base := `{"kind":"reliability","dims":[4,4],"fault_rates":[0,0.02],"trials":4,"rate":0.1,"warmup":8,"measure":24,"drain":32,"flight_timeout":16,"seed":42`
	spec, err := ParseSpec([]byte(base + `}`))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ndmesh.ReliabilitySweepWorkers(sweepOptions[ndmesh.ReliabilityRow](spec), spec.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, r := range rows {
		want.Write(encodeNDJSON(r))
	}
	streamAtEveryWidth(t, base, want.Bytes())
}

// TestE2EReplay records a trace, replays it through the daemon, and diffs
// against LoadRun's replayed point as the comparison's row.
func TestE2EReplay(t *testing.T) {
	trace := recordedTrace(t)
	tr, err := traffic.UnmarshalTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := ndmesh.LoadRun(ndmesh.LoadOptions{Router: "limited", Replay: tr})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeNDJSON(ndmesh.ReplayCompareRow{Router: "limited", Point: pt})

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, err := json.Marshal(map[string]any{"kind": "replay", "trace": trace})
	if err != nil {
		t.Fatal(err)
	}
	resp, got := submit(t, ts, "", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("replayed body differs:\n got: %s\nwant: %s", got, want)
	}
	if err := srv.Pool().VerifyClean(); err != nil {
		t.Fatal(err)
	}
}

// TestE2EReplayRouters streams a replay over two routers at every width:
// one row per router, the library comparison's rows byte for byte.
func TestE2EReplayRouters(t *testing.T) {
	trace, err := json.Marshal(recordedTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	base := `{"kind":"replay","routers":["limited","dor"],"trace":` + string(trace) + `,"seed":42`
	spec, err := ParseSpec([]byte(base + `}`))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ndmesh.ReplayCompareSweepWorkers(sweepOptions[ndmesh.ReplayCompareRow](spec), spec.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Router != "limited" || rows[1].Router != "dor" {
		t.Fatalf("library rows %+v, want the limited arm, then the dor arm", rows)
	}
	var want bytes.Buffer
	for _, r := range rows {
		want.Write(encodeNDJSON(r))
	}
	streamAtEveryWidth(t, base, want.Bytes())
}

// TestE2ENaNTraceRefused: a replay trace whose rate is NaN gets a 400 and
// leaves no job in the registry. Accepted, it had the handler panic while
// encoding the replayed row (JSON has no NaN), and the job stayed running.
func TestE2ENaNTraceRefused(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	trace := (&traffic.Trace{Dims: []int{4, 4}, Rate: math.NaN()}).Marshal()
	resp, body := submit(t, ts, "", string(replaySpec(t, "", trace)))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	lr, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	for _, j := range list.Jobs {
		if j.State == StateRunning {
			t.Errorf("job %s is still running after the refusal: %+v", j.ID, j)
		}
	}
	if st := srv.Pool().Stats(); st.Built != 0 || st.Acquired != 0 {
		t.Errorf("the refused job touched an engine: %+v", st)
	}
}

// TestE2EProbeAndRegistry drives a probed single-cell job, then checks
// the registry and census endpoints: the job reports done with its rows
// counted, and /debug/census carries the run's census rollup plus pool
// and cache counters.
func TestE2EProbeAndRegistry(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := submit(t, ts, "", `{"kind":"open-loop","dims":[4,4],"rates":[0.2],"warmup":8,"measure":24,"drain":32,"seed":3,"probe":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Meshd-Job")
	if id == "" {
		t.Fatal("no X-Meshd-Job header")
	}

	jr, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(jr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if st.State != StateDone || st.Rows != 1 || st.Cells != 1 || st.Cache != "miss" {
		t.Fatalf("job status = %+v", st)
	}

	cr, err := http.Get(ts.URL + "/debug/census")
	if err != nil {
		t.Fatal(err)
	}
	var view censusView
	if err := json.NewDecoder(cr.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	if view.Probe == nil || view.Probe.Job != id {
		t.Fatalf("census probe = %+v, want job %s", view.Probe, id)
	}
	if view.Probe.Census.Injected == 0 || view.Probe.Census.Delivered == 0 {
		t.Fatalf("probed census saw no traffic: %+v", view.Probe.Census)
	}
	if view.Pool.Built == 0 {
		t.Fatalf("pool stats report no engine built: %+v", view.Pool)
	}

	lr, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != id {
		t.Fatalf("job list = %+v", list.Jobs)
	}
}

// TestE2EBadRequests pins the submission guardrails.
func TestE2EBadRequests(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for name, tc := range map[string]struct{ query, body string }{
		"bad-spec":    {"", `{"kind":"nope"}`},
		"bad-format":  {"?format=xml", `{"kind":"open-loop"}`},
		"not-json":    {"", `hello`},
		"unknown-key": {"", `{"kind":"open-loop","turbo":true}`},
	} {
		t.Run(name, func(t *testing.T) {
			resp, _ := submit(t, ts, tc.query, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}

	// Draining server refuses new work.
	srv.BeginShutdown()
	resp, _ := submit(t, ts, "", `{"kind":"open-loop"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit got %d, want 503", resp.StatusCode)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz got %d, want 503", hr.StatusCode)
	}
}

// TestE2ELibraryRulesRefused: a spec the library's own pre-run check
// refuses gets a 400 at decode — no job registered, no run slot, no
// simulation built — where each of these once was admitted and ended as a
// 200 carrying one error line (the 256x256 one after building a 65,536-node
// simulation for the pool).
func TestE2ELibraryRulesRefused(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// A 4x4 recording relabeled 2x2: its offers name nodes past the mesh.
	outside, err := traffic.UnmarshalTrace(recordedTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	outside.Dims = []int{2, 2}
	for name, body := range map[string]string{
		"rate-over-process":     `{"kind":"open-loop","rates":[1.5]}`,
		"bubble-capacity-1":     `{"kind":"open-loop","bubble":true,"node_capacity":1}`,
		"fault-rate-over-1":     `{"kind":"reliability","fault_rates":[2]}`,
		"unknown-fault-model":   `{"kind":"reliability","fault_model":"nope"}`,
		"fault-rate-and-faults": `{"kind":"open-loop","fault_rate":0.01,"faults":2}`,
		"unknown-process":       `{"kind":"open-loop","process":"nope"}`,
		"unknown-router":        `{"kind":"open-loop","routers":["nope"]}`,
		"unknown-pattern":       `{"kind":"open-loop","patterns":["nope"]}`,
		"unknown-router-large":  `{"kind":"open-loop","dims":[256,256],"routers":["nope"]}`,
		"unknown-router-after":  `{"kind":"open-loop","routers":["limited","nope"]}`,
		"faults-over-interior":  `{"kind":"open-loop","dims":[4,4],"faults":20}`,
		"faults-over-3x3":       `{"kind":"closed-loop","dims":[3,3],"faults":2}`,
		"replay-unknown-router": string(replaySpec(t, `"routers":["nope"],`, recordedTrace(t))),
		"replay-outside-mesh":   string(replaySpec(t, "", outside.Marshal())),
		// Fields a replay does not read: each was once run, ignored, and
		// cached under a key of its own.
		"replay-retry-backoff":  string(replaySpec(t, `"retry_backoff":4,`, recordedTrace(t))),
		"replay-fault-model":    string(replaySpec(t, `"fault_model":"nope",`, recordedTrace(t))),
		"replay-fault-shape":    string(replaySpec(t, `"fault_shape":1.5,`, recordedTrace(t))),
		"replay-fault-repair":   string(replaySpec(t, `"fault_repair":40,`, recordedTrace(t))),
		"replay-fault-interval": string(replaySpec(t, `"fault_interval":10,`, recordedTrace(t))),
		"replay-fault-start":    string(replaySpec(t, `"fault_start":3,`, recordedTrace(t))),
		"replay-clustered":      string(replaySpec(t, `"clustered":true,`, recordedTrace(t))),
	} {
		t.Run(name, func(t *testing.T) {
			resp, answer := submit(t, ts, "", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d (%s), want 400", resp.StatusCode, answer)
			}
			if strings.HasPrefix(name, "faults-") && !strings.Contains(string(answer), "Faults") {
				t.Errorf("the refusal %s does not name Faults", answer)
			}
		})
	}
	lr, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if len(list.Jobs) != 0 {
		t.Errorf("refused specs registered jobs: %+v", list.Jobs)
	}
	if st := srv.Pool().Stats(); st != (ndmesh.PoolStats{}) {
		t.Errorf("refused specs touched the pool: %+v", st)
	}
}

// TestNegativeConfigMeansDefault holds a negative MaxConcurrent, MaxQueue,
// PoolIdle or MaxWorkers to the default, as 0 is: New must not panic on a
// negative run-slot count, a negative queue must not refuse every job, and
// a negative idle cap must not retain without bound.
func TestNegativeConfigMeansDefault(t *testing.T) {
	srv := New(Config{MaxConcurrent: -1, MaxQueue: -3, PoolIdle: -1, MaxWorkers: -2})
	if def := New(Config{}); srv.cfg != def.cfg {
		t.Fatalf("negative config filled to %+v, want the defaults %+v", srv.cfg, def.cfg)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := submit(t, ts, "", `{"kind":"open-loop","dims":[4,4],"rates":[0.1],"warmup":4,"measure":8,"drain":8,"seed":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

// TestE2ECanceledMidGrid cancels a job once its first row has streamed:
// at every width the body is a prefix of the batch rows, cut at the
// lowest cell the cancel stopped, followed by the job's error line. The
// batch prefix comes from the library sweep canceled after as many rows,
// so only the streamed cells are run twice.
func TestE2ECanceledMidGrid(t *testing.T) {
	base := `{"kind":"open-loop","dims":[8,8],"patterns":["uniform","transpose"],"rates":[0.05,0.1,0.15,0.2,0.25,0.3],"warmup":8,"measure":3000,"drain":32,"seed":11`
	spec, err := ParseSpec([]byte(base + `}`))
	if err != nil {
		t.Fatal(err)
	}
	cells := len(spec.Patterns) * len(spec.Rates) * len(spec.Routers)
	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			srv := New(Config{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			body := make(chan []byte, 1)
			go func() {
				_, got := submit(t, ts, "", fmt.Sprintf(`%s,"workers":%d}`, base, w))
				body <- got
			}()
			waitFor(t, srv, "a job with a streamed row", func(st JobStatus) bool { return st.Rows > 0 })
			srv.CancelAll()
			lines := bytes.SplitAfter(<-body, []byte("\n"))
			if last := lines[len(lines)-1]; len(last) != 0 {
				t.Fatalf("body does not end in a newline: %q", last)
			}
			lines = lines[:len(lines)-1]
			n := len(lines) - 1
			if n < 1 || n >= cells {
				t.Fatalf("%d of %d rows streamed before the error line; the cancel did not land mid-grid", n, cells)
			}

			var want [][]byte
			opt := sweepOptions[ndmesh.SaturationRow](spec)
			opt.Emit = func(_ int, row ndmesh.SaturationRow) { want = append(want, encodeNDJSON(row)) }
			opt.Cancel = func() bool { return len(want) >= n }
			if _, err := ndmesh.SaturationSweepWorkers(opt, spec.Seed, 1); !errors.Is(err, ndmesh.ErrCanceled) {
				t.Fatalf("batch prefix of %d rows: err = %v, want ErrCanceled", n, err)
			}
			for i, line := range lines[:n] {
				if !bytes.Equal(line, want[i]) {
					t.Fatalf("row %d differs from the batch row\n got: %s\nwant: %s", i, line, want[i])
				}
			}
			if want := encodeNDJSON(map[string]string{"error": ndmesh.ErrCanceled.Error()}); !bytes.Equal(lines[n], want) {
				t.Fatalf("last line = %q, want the error line %q", lines[n], want)
			}
			if err := srv.Pool().VerifyClean(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
