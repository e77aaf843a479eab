package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndmesh"
	"ndmesh/internal/cliutil"
	"ndmesh/internal/probe"
)

var updateFixtures = flag.Bool("update-fixtures", false, "rewrite testdata/ from this tree")

// loadgen runs the CLI in-process and returns its stdout.
func loadgen(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("loadgen %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// csvRows splits -csv output into its data rows (header dropped).
func csvRows(t *testing.T, out string) []string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("no data rows in %q", out)
	}
	return lines[1:]
}

// csvColumn returns the named column of -csv output, one value per data
// row.
func csvColumn(t *testing.T, out, name string) []string {
	t.Helper()
	header, _, _ := strings.Cut(out, "\n")
	for i, h := range strings.Split(header, ",") {
		if h != name {
			continue
		}
		var col []string
		for _, row := range csvRows(t, out) {
			col = append(col, strings.Split(row, ",")[i])
		}
		return col
	}
	t.Fatalf("no %q column in %q", name, header)
	return nil
}

// afterFirstCell drops a point-table row's workload label, which names the
// live pattern on a recording and "trace" on a replay.
func afterFirstCell(row string) string {
	_, rest, _ := strings.Cut(row, ",")
	return rest
}

// TestTraceRecordReplayIdentical is the trace subsystem's contract end to
// end through the CLI and the file format: record one live cell (fault
// overlay included), replay it with NO engine flag repeated — the trace
// carries the engine configuration — and the two reported rows are
// byte-identical.
func TestTraceRecordReplayIdentical(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.ndwt")
	live := csvRows(t, loadgen(t, "-dims", "6x6", "-rates", "0.2", "-patterns", "uniform", "-capacity", "4",
		"-faults", "3", "-interval", "10", "-warmup", "16", "-measure", "48", "-drain", "48",
		"-trace-record", trace, "-csv"))
	replay := csvRows(t, loadgen(t, "-trace-replay", trace, "-csv"))
	if len(live) != 1 || len(replay) != 1 {
		t.Fatalf("want one row each, got live %q replay %q", live, replay)
	}
	if afterFirstCell(live[0]) != afterFirstCell(replay[0]) {
		t.Errorf("replay differs from the recorded run:\n live   %s\n replay %s", live[0], replay[0])
	}
}

// TestReplayComparisonRows fans one trace across several routers in a
// single invocation: one row per router, in order, the limited row equal
// to a plain single-router replay of the same trace.
func TestReplayComparisonRows(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "cmp.ndwt")
	loadgen(t, "-dims", "6x6", "-rates", "0.2", "-patterns", "transpose", "-capacity", "4",
		"-warmup", "16", "-measure", "48", "-drain", "48", "-trace-record", trace)
	routers := []string{"limited", "congested", "blind"}
	rows := csvRows(t, loadgen(t, "-trace-replay", trace, "-routers", strings.Join(routers, ","), "-workers", "2", "-csv"))
	if len(rows) != len(routers) {
		t.Fatalf("got %d rows for %d routers: %q", len(rows), len(routers), rows)
	}
	for i, router := range routers {
		if !strings.HasPrefix(rows[i], "trace,"+router+",") {
			t.Errorf("row %d is not the %s arm: %s", i, router, rows[i])
		}
	}
	single := csvRows(t, loadgen(t, "-trace-replay", trace, "-csv"))
	if rows[0] != single[0] {
		t.Errorf("limited arm differs from the single-router replay:\n arm    %s\n single %s", rows[0], single[0])
	}
}

// TestOpenLoopCSVMatchesLibrary pins -csv output to the library: the same
// grid through SaturationSweepWorkers, rendered by the shared cliutil
// table, is the same bytes (meshd's streamed CSV goes through the same
// renderer, which is what the CI serve smoke diffs).
func TestOpenLoopCSVMatchesLibrary(t *testing.T) {
	got := loadgen(t, "-dims", "6x6", "-rates", "0.05,0.25", "-patterns", "uniform,transpose",
		"-routers", "limited,congested", "-warmup", "16", "-measure", "48", "-drain", "48",
		"-capacity", "4", "-workers", "2", "-seed", "1", "-csv")
	opt := ndmesh.DefaultSaturation()
	opt.Dims = []int{6, 6}
	opt.Rates = []float64{0.05, 0.25}
	opt.Routers = []string{"limited", "congested"}
	opt.Warmup, opt.Measure, opt.Drain = 16, 48, 48
	opt.NodeCapacity = 4
	rows, err := ndmesh.SaturationSweepWorkers(opt, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := cliutil.OpenLoopTable("", rows).CSV(); got != want {
		t.Errorf("-csv output differs from the library rows:\n got\n%s want\n%s", got, want)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows for a 2x2x2 grid", len(rows))
	}
	for _, r := range rows {
		if r.Delivered == 0 {
			t.Errorf("cell %s/%s@%g delivered nothing", r.Pattern, r.Router, r.OfferedRate)
		}
	}
}

// TestGridlockEscapeCell is E22 end to end: one cell in the gridlock regime
// (tight buffers, window past the buffer budget — without the escape flags
// it delivers nothing) with every escape mechanism on completes with
// delivered traffic and no backlog instead of wedging.
func TestGridlockEscapeCell(t *testing.T) {
	out := loadgen(t, "-dims", "6x6", "-windows", "4", "-patterns", "transpose",
		"-warmup", "16", "-measure", "96", "-drain", "96", "-capacity", "4",
		"-gridlock-window", "8", "-timeout", "12", "-retry-backoff", "4", "-bubble", "-workers", "2", "-csv")
	delivered, unfin := csvColumn(t, out, "delivered"), csvColumn(t, out, "unfin")
	if len(delivered) != 1 {
		t.Fatalf("want one row, got %q", out)
	}
	if delivered[0] == "0" || unfin[0] != "0" {
		t.Errorf("escape cell wedged: delivered %s, unfinished %s", delivered[0], unfin[0])
	}
}

// TestReliabilityCell is E23 end to end: one run under a live weibull
// fault process with repair and flight timeouts still delivers.
func TestReliabilityCell(t *testing.T) {
	out := loadgen(t, "-dims", "8x8", "-rates", "0.1", "-fault-rate", "0.02", "-fault-model", "weibull",
		"-repair", "60", "-timeout", "24", "-warmup", "16", "-measure", "96", "-drain", "96", "-csv")
	if delivered := csvColumn(t, out, "delivered"); len(delivered) != 1 || delivered[0] == "0" {
		t.Errorf("want one row with delivered traffic, got %q", out)
	}
}

// TestEmptyListFlagsRejected: an empty -routers or -patterns list is an
// error naming the flag in every mode (a replay used to index routers[0]
// and panic).
func TestEmptyListFlagsRejected(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "w.ndwt")
	loadgen(t, "-dims", "4x4", "-rates", "0.2", "-warmup", "8", "-measure", "24", "-drain", "24", "-trace-record", trace)
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-routers", []string{"-trace-replay", trace, "-routers", ""}},
		{"-routers", []string{"-rates", "0.1", "-routers", ","}},
		{"-patterns", []string{"-windows", "2", "-patterns", ""}},
		{"-patterns", []string{"-trace-record", trace, "-patterns", " "}},
	} {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("loadgen %q: err = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}

// TestClosedLoopWindows runs a small E21 window sweep through the CLI.
func TestClosedLoopWindows(t *testing.T) {
	rows := csvRows(t, loadgen(t, "-dims", "6x6", "-windows", "1,4", "-patterns", "uniform,transpose",
		"-warmup", "16", "-measure", "48", "-drain", "48", "-workers", "2", "-csv"))
	if len(rows) != 4 {
		t.Fatalf("got %d rows for a 2x2 grid: %q", len(rows), rows)
	}
}

// TestManifestRecordsNoWorkers pins the telemetry sidecar's configuration:
// the fan-out width is the -workers flag and reaches no option field, so a
// manifest cannot claim a worker count (it used to record "Workers": 0
// whatever -workers was).
func TestManifestRecordsNoWorkers(t *testing.T) {
	for name, load := range map[string][]string{
		"saturation":  {"-rates", "0.2"},
		"closed-loop": {"-windows", "2"},
	} {
		ts := filepath.Join(t.TempDir(), "ts.csv")
		loadgen(t, append(load, "-dims", "4x4", "-warmup", "8", "-measure", "24", "-drain", "24",
			"-workers", "3", "-timeseries", ts)...)
		data, err := os.ReadFile(ts + ".manifest.json")
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Config map[string]json.RawMessage `json:"config"`
		}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Config["Dims"]; !ok {
			t.Errorf("%s: manifest config carries no Dims — not the run's options? %s", name, data)
		}
		if _, ok := m.Config["Workers"]; ok {
			t.Errorf("%s: manifest config records a Workers value", name)
		}
	}
}

// TestManifestConfigGolden pins, byte for byte, the config object a probed
// sweep embeds in its manifest: the options value the run took, hooks
// omitted. One open-loop and one closed-loop invocation, each exercising
// every flag that reaches an option field.
func TestManifestConfigGolden(t *testing.T) {
	for name, load := range map[string][]string{
		"open_loop":   {"-rates", "0.2", "-process", "poisson"},
		"closed_loop": {"-windows", "2"},
	} {
		ts := filepath.Join(t.TempDir(), "ts.csv")
		loadgen(t, append(load, "-dims", "4x4", "-routers", "congested", "-patterns", "transpose", "-lambda", "2",
			"-warmup", "8", "-measure", "24", "-drain", "24", "-link-rate", "2", "-capacity", "4",
			"-timeout", "12", "-retry-backoff", "3", "-bubble", "-gridlock-window", "6",
			"-fault-rate", "0.01", "-fault-model", "weibull", "-fault-shape", "1.25", "-fault-start", "5",
			"-repair", "40", "-clustered", "-probe-every", "2", "-workers", "3", "-timeseries", ts)...)
		data, err := os.ReadFile(ts + ".manifest.json")
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Config json.RawMessage `json:"config"`
		}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", "manifest_config_"+name+".json")
		if *updateFixtures {
			if err := os.WriteFile(golden, append(m.Config, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := append(m.Config, '\n'); !bytes.Equal(got, want) {
			t.Errorf("%s: manifest config moved\n got: %s\nwant: %s", name, got, want)
		}
	}
}

// TestTelemetryFiles is the probe layer end to end through the CLI: one
// probed run (decimated flush cadence) writes all three telemetry files,
// each with data rows under exactly its published header and a
// format-version-1 manifest beside it.
func TestTelemetryFiles(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"ts.csv":  "step,steps,injected,delivered,unreachable,lost,timed_out,retried,failed,recovered,moves,stalls,in_flight,gridlocked",
		"hm.csv":  "kind,node,dir,peak,total,mean",
		"lat.csv": "lo,hi,count,cum",
	}
	loadgen(t, "-dims", "8x8", "-rates", "0.2", "-patterns", "uniform", "-capacity", "4",
		"-warmup", "16", "-measure", "96", "-drain", "96", "-progress", "-probe-every", "2",
		"-timeseries", filepath.Join(dir, "ts.csv"), "-heatmap", filepath.Join(dir, "hm.csv"), "-hist", filepath.Join(dir, "lat.csv"))
	for name, header := range files {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if len(lines) < 2 || lines[0] != header {
			t.Errorf("%s: %d lines under header %q, want data rows under %q", name, len(lines), lines[0], header)
		}
		manifest, err := os.ReadFile(filepath.Join(dir, name+".manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(manifest), `"format_version": 1`) {
			t.Errorf("%s manifest carries no format_version 1: %s", name, manifest)
		}
	}
}

// TestDebugEndpoints serves the -debug-addr mux over a snapshot a short
// probed run has fed: the census rollup is the run's, the pprof index
// answers.
func TestDebugEndpoints(t *testing.T) {
	snap := &probe.Snapshot{}
	if _, err := ndmesh.LoadRun(ndmesh.LoadOptions{
		Dims: []int{6, 6}, Lambda: 1, Router: "limited", Pattern: "uniform", Rate: 0.2,
		Warmup: 8, Measure: 32, Drain: 32, LinkRate: 1, NodeCapacity: 4,
		Probe: snap, ProbeEvery: 1, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newDebugMux(snap))
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, read error %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	census := get("/debug/census")
	var state probe.SnapshotState
	if err := json.Unmarshal([]byte(census), &state); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(census, `"in_flight"`) || state.Steps == 0 || state.Injected == 0 {
		t.Errorf("census is not the probed run's rollup: %s", census)
	}
	get("/debug/pprof/")
}
