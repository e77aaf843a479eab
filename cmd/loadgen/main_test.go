package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ndmesh"
	"ndmesh/internal/cliutil"
	"ndmesh/internal/probe"
	"ndmesh/internal/traffic"
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

// TestReplayEngineFlagsReplaceRecorded: on a replay, an engine flag given
// explicitly replaces the value the trace recorded, 0 and false included,
// and a flag left at its default replaces nothing. Each replay re-records,
// and the re-recording carries the configuration the replay ran under. A
// flag a replay does not read is refused.
func TestReplayEngineFlagsReplaceRecorded(t *testing.T) {
	dir := t.TempDir()
	record := func(name string, extra ...string) string {
		trace := filepath.Join(dir, name)
		loadgen(t, append([]string{"-dims", "6x6", "-windows", "4", "-patterns", "transpose", "-capacity", "2",
			"-timeout", "6", "-retry-backoff", "2", "-link-rate", "2", "-trace-record", trace}, extra...)...)
		return trace
	}
	plain, bubble := record("plain.ndwt"), record("bubble.ndwt", "-bubble")
	// replay returns the replay's output and the configuration it ran under.
	replay := func(trace string, flags ...string) (string, *traffic.Trace) {
		t.Helper()
		rerec := filepath.Join(t.TempDir(), "rerec.ndwt")
		out := loadgen(t, append([]string{"-trace-replay", trace, "-trace-record", rerec}, flags...)...)
		data, err := os.ReadFile(rerec)
		if err != nil {
			t.Fatal(err)
		}
		ran, err := traffic.UnmarshalTrace(data)
		if err != nil {
			t.Fatal(err)
		}
		return out, ran
	}
	out, ran := replay(plain, "-csv")
	if ran.LinkRate != 2 || ran.NodeCapacity != 2 || ran.FlightTimeout != 6 || ran.Bubble {
		t.Errorf("a flagless replay did not run the recorded configuration: %+v", ran)
	}
	if timeouts := csvColumn(t, out, "timeout"); timeouts[0] == "0" {
		t.Fatal("the recording's replay kills no flight; the -timeout 0 case lost its teeth")
	}
	out, ran = replay(plain, "-timeout", "0", "-csv")
	if timeouts := csvColumn(t, out, "timeout"); ran.FlightTimeout != 0 || timeouts[0] != "0" {
		t.Errorf("-timeout 0 replayed with timeout %d, %s flights killed", ran.FlightTimeout, timeouts[0])
	}
	// A timeout switched on over a timeout-free recording kills flights that
	// nothing re-offers: none counts as retried.
	free := filepath.Join(dir, "free.ndwt")
	loadgen(t, "-dims", "6x6", "-rates", "0.4", "-patterns", "transpose", "-capacity", "2", "-trace-record", free)
	out, ran = replay(free, "-timeout", "6", "-csv")
	if timeouts, retried := csvColumn(t, out, "timeout"), csvColumn(t, out, "retried"); ran.FlightTimeout != 6 || timeouts[0] == "0" || retried[0] != "0" {
		t.Errorf("-timeout 6 over a timeout-free recording replayed with timeout %d, %s flights killed, %s retried; want 6, some, 0",
			ran.FlightTimeout, timeouts[0], retried[0])
	}
	if _, ran = replay(plain, "-capacity", "0"); ran.NodeCapacity != 0 {
		t.Errorf("-capacity 0 replayed at capacity %d, want unbounded", ran.NodeCapacity)
	}
	if out, ran = replay(plain, "-link-rate", "3"); ran.LinkRate != 3 || !strings.Contains(out, "link-rate=3,") {
		t.Errorf("-link-rate 3 replayed at link rate %d under the title\n%s", ran.LinkRate, out)
	}
	on, ran := replay(bubble, "-csv")
	if !ran.Bubble {
		t.Fatal("a bubble recording replayed without bubble admission")
	}
	off, ran := replay(bubble, "-bubble=false", "-csv")
	if ran.Bubble || off == on {
		t.Errorf("-bubble=false left bubble admission on (bubble %v)", ran.Bubble)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-trace-replay", plain, "-retry-backoff", "4"}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "RetryBackoff") {
		t.Errorf("-retry-backoff on a replay: error = %v, want one naming RetryBackoff", err)
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

// TestManifestOneProbeCadence: a manifest records one flush cadence. A
// -probe-every below 1 means every step, and both the manifest's
// probe_every and the run's own ProbeEvery option say 1.
func TestManifestOneProbeCadence(t *testing.T) {
	for _, c := range []struct {
		every string
		want  int
	}{{"0", 1}, {"-3", 1}, {"1", 1}, {"4", 4}} {
		ts := filepath.Join(t.TempDir(), "ts.csv")
		loadgen(t, "-dims", "4x4", "-rates", "0.1", "-warmup", "8", "-measure", "24", "-drain", "24",
			"-probe-every", c.every, "-timeseries", ts)
		data, err := os.ReadFile(ts + ".manifest.json")
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			ProbeEvery int `json:"probe_every"`
			Config     struct{ ProbeEvery int }
		}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		if m.ProbeEvery != c.want || m.Config.ProbeEvery != c.want {
			t.Errorf("-probe-every %s: manifest probe_every %d, config ProbeEvery %d, want both %d",
				c.every, m.ProbeEvery, m.Config.ProbeEvery, c.want)
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

// flagReach is one flag that reaches an option field: the field's name and
// compact JSON in a sweep's manifest config and in a recording's, where
// the recording's cell holds the grid's one value of a list.
type flagReach struct {
	flag, value             string
	sweepField, sweepJSON   string
	recordField, recordJSON string
}

// shared reaches the same field, with the same JSON, in both configs.
func shared(flag, value, field, json string) flagReach {
	return flagReach{flag, value, field, json, field, json}
}

// nonOptionFlags reach no field a manifest config records: outputs, the
// fan-out width, the replay input, the seed (the manifest's own seed) and
// -progress (a hook; TestEveryFlagReachesTheManifest reads its output).
var nonOptionFlags = []string{"csv", "debug-addr", "heatmap", "hist", "timeseries",
	"trace-record", "trace-replay", "workers", "seed", "progress"}

// withStderr runs fn with os.Stderr sent to a file and returns what fn
// wrote there (-progress prints to os.Stderr).
func withStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	fn()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestEveryFlagReachesTheManifest holds loadgen's one flags-to-options
// literal to its flags, as TestSweepCellCarriesEverySharedField holds
// LoadSweepOptions.Cell: every flag that reaches an option field is set to
// a value no other flag has, and each manifest config field must carry its
// flag's value, in a one-cell sweep and in a recording with -timeseries,
// open- and closed-loop, under either fault overlay. A flag loadgen's usage
// lists must be in the table or reach no option field.
func TestEveryFlagReachesTheManifest(t *testing.T) {
	common := []flagReach{
		shared("-dims", "5x5", "Dims", "[5,5]"),
		{"-routers", "congested", "Routers", `["congested"]`, "Router", `"congested"`},
		{"-patterns", "transpose", "Patterns", `["transpose"]`, "Pattern", `"transpose"`},
		shared("-lambda", "2", "Lambda", "2"),
		shared("-link-rate", "3", "LinkRate", "3"),
		shared("-capacity", "4", "NodeCapacity", "4"),
		shared("-retry-backoff", "5", "RetryBackoff", "5"),
		shared("-warmup", "6", "Warmup", "6"),
		shared("-gridlock-window", "7", "GridlockWindow", "7"),
		shared("-fault-start", "8", "FaultStart", "8"),
		shared("-interval", "9", "FaultInterval", "9"),
		shared("-drain", "10", "Drain", "10"),
		shared("-timeout", "11", "FlightTimeout", "11"),
		shared("-probe-every", "12", "ProbeEvery", "12"),
		shared("-measure", "14", "Measure", "14"),
		shared("-bubble", "true", "Bubble", "true"),
		shared("-clustered", "true", "Clustered", "true"),
	}
	modes := map[string][]flagReach{
		"open-loop": {
			{"-rates", "0.15", "Rates", "[0.15]", "Rate", "0.15"},
			shared("-process", "poisson", "Process", `"poisson"`),
		},
		"closed-loop": {{"-windows", "15", "Windows", "[15]", "Window", "15"}},
	}
	overlays := map[string][]flagReach{
		"fixed": {shared("-faults", "1", "Faults", "1")},
		"process": {
			shared("-fault-rate", "0.05", "FaultRate", "0.05"),
			shared("-fault-model", "weibull", "FaultModel", `"weibull"`),
			shared("-fault-shape", "1.25", "FaultShape", "1.25"),
			shared("-repair", "20", "FaultRepair", "20"),
		},
	}

	var usage bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	covered := map[string]bool{}
	for _, name := range nonOptionFlags {
		covered[name] = true
	}
	for _, set := range [][]flagReach{common, modes["open-loop"], modes["closed-loop"], overlays["fixed"], overlays["process"]} {
		for _, r := range set {
			covered[strings.TrimPrefix(r.flag, "-")] = true
		}
	}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage.String(), -1) {
		if !covered[m[1]] {
			t.Errorf("-%s is in loadgen's usage but not in this test's table", m[1])
		}
		delete(covered, m[1])
	}
	for name := range covered {
		t.Errorf("the table names -%s, which loadgen's usage does not list", name)
	}

	for mode, load := range modes {
		for overlay, faults := range overlays {
			reaches := append(append(slices.Clone(common), load...), faults...)
			args := []string{"-seed", "17", "-progress"}
			for _, r := range reaches {
				args = append(args, r.flag+"="+r.value)
			}
			for _, recording := range []bool{false, true} {
				name := mode + "/" + overlay + "/sweep"
				dir := t.TempDir()
				ts := filepath.Join(dir, "ts.csv")
				argv := append(slices.Clone(args), "-timeseries", ts)
				if recording {
					name = mode + "/" + overlay + "/record"
					argv = append(argv, "-trace-record", filepath.Join(dir, "w.ndwt"))
				}
				progress := withStderr(t, func() { loadgen(t, argv...) })
				if !strings.Contains(progress, "loadgen: 1/1 cells done") {
					t.Errorf("%s: -progress printed %q, want its one cell", name, progress)
				}
				data, err := os.ReadFile(ts + ".manifest.json")
				if err != nil {
					t.Fatal(err)
				}
				var m struct {
					Seed   uint64                     `json:"seed"`
					Config map[string]json.RawMessage `json:"config"`
				}
				if err := json.Unmarshal(data, &m); err != nil {
					t.Fatal(err)
				}
				if m.Seed != 17 {
					t.Errorf("%s: manifest seed %d, want -seed 17", name, m.Seed)
				}
				want := map[string]string{}
				for _, r := range reaches {
					if recording {
						want[r.recordField] = r.recordJSON
					} else {
						want[r.sweepField] = r.sweepJSON
					}
				}
				if recording {
					want["Seed"] = "17"
				}
				for field, w := range want {
					var got bytes.Buffer
					if err := json.Compact(&got, m.Config[field]); err != nil || got.String() != w {
						t.Errorf("%s: config %s = %s, want %s", name, field, m.Config[field], w)
					}
				}
			}
		}
	}
}

// TestTraceRecordRefusesSeveralCells: a recording is the one cell of the
// grid its flags describe. A grid of two rates, routers, patterns or
// windows is refused with the library's cell count, and no trace file is
// written.
func TestTraceRecordRefusesSeveralCells(t *testing.T) {
	for name, extra := range map[string][]string{
		"rates":    {"-rates", "0.1,0.2"},
		"routers":  {"-routers", "limited,congested"},
		"patterns": {"-patterns", "uniform,transpose"},
		"windows":  {"-windows", "2,4"},
	} {
		trace := filepath.Join(t.TempDir(), "w.ndwt")
		args := append([]string{"-dims", "4x4", "-warmup", "4", "-measure", "8", "-drain", "8", "-trace-record", trace}, extra...)
		err := run(args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "describe 2 ") {
			t.Errorf("%s: err = %v, want a refusal naming the 2 cells", name, err)
		}
		if _, serr := os.Stat(trace); !errors.Is(serr, os.ErrNotExist) {
			t.Errorf("%s: a refused recording left a trace file (stat: %v)", name, serr)
		}
	}
}

// TestReRecordedComparisonRefused: re-recording a replay compared across
// two routers is refused by the one-cell rule of a recording, with the
// library's count of router arms, and no trace file is written.
func TestReRecordedComparisonRefused(t *testing.T) {
	dir := t.TempDir()
	trace, rerec := filepath.Join(dir, "w.ndwt"), filepath.Join(dir, "rerec.ndwt")
	loadgen(t, "-dims", "4x4", "-rates", "0.2", "-warmup", "4", "-measure", "8", "-drain", "8", "-trace-record", trace)
	err := run([]string{"-trace-replay", trace, "-routers", "limited,congested", "-trace-record", rerec}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "describe 2 replay router arms") {
		t.Errorf("err = %v, want the one-cell refusal naming the 2 router arms", err)
	}
	if _, serr := os.Stat(rerec); !errors.Is(serr, os.ErrNotExist) {
		t.Errorf("a refused re-recording left a trace file (stat: %v)", serr)
	}
}

// TestCheckBeforeTelemetry: a sweep or a replay the library refuses starts
// no debug server and builds no recorder; the error names the unknown
// router.
func TestCheckBeforeTelemetry(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "w.ndwt")
	loadgen(t, "-dims", "4x4", "-rates", "0.2", "-warmup", "4", "-measure", "8", "-drain", "8", "-trace-record", trace)
	var logged bytes.Buffer
	saved := log.Writer()
	log.SetOutput(&logged)
	defer log.SetOutput(saved)
	for name, load := range map[string][]string{
		"sweep":  {"-dims", "4x4", "-rates", "0.1"},
		"replay": {"-trace-replay", trace},
	} {
		logged.Reset()
		err := run(append(load, "-routers", "bogus", "-debug-addr", "127.0.0.1:0"), io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "bogus") {
			t.Errorf("%s: err = %v, want one naming the router", name, err)
		}
		if strings.Contains(logged.String(), "debug server listening") {
			t.Errorf("a refused %s started the debug server: %q", name, logged.String())
		}
	}
}
