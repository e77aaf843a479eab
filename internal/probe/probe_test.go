package probe

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ndmesh/internal/core"
	"ndmesh/internal/engine"
	"ndmesh/internal/grid"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/route"
)

// TestTimeSeriesRing pins the ring semantics: a full ring keeps the last
// `capacity` rows in chronological order and counts the overwrites.
func TestTimeSeriesRing(t *testing.T) {
	ts := NewTimeSeries(3)
	for step := 1; step <= 5; step++ {
		ts.ObserveStep(engine.StepCensus{Step: step, Steps: 1, Injected: step})
	}
	if len(ts.Rows()) != 3 || ts.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", len(ts.Rows()), ts.Dropped())
	}
	rows := ts.Rows()
	for i, want := range []int{3, 4, 5} {
		if rows[i].Step != want || rows[i].Injected != want {
			t.Fatalf("row %d = %+v, want step=%d", i, rows[i], want)
		}
	}
	// Degenerate capacity clamps to 1.
	one := NewTimeSeries(0)
	one.ObserveStep(engine.StepCensus{Step: 1, Steps: 1})
	one.ObserveStep(engine.StepCensus{Step: 2, Steps: 1})
	if len(one.Rows()) != 1 || one.Rows()[0].Step != 2 || one.Dropped() != 1 {
		t.Fatalf("capacity-0 ring: len=%d dropped=%d rows=%+v", len(one.Rows()), one.Dropped(), one.Rows())
	}
}

// TestTimeSeriesCSV pins the CSV column order against TimeSeriesSchema and
// the 0/1 encoding of the gridlock latch.
func TestTimeSeriesCSV(t *testing.T) {
	ts := NewTimeSeries(4)
	ts.ObserveStep(engine.StepCensus{
		Step: 7, Steps: 2, Injected: 3, Delivered: 2, Unreachable: 1,
		Lost: 4, TimedOut: 5, Retried: 5, Failed: 1, Recovered: 2,
		Moves: 6, Stalls: 8, InFlight: 9, Gridlocked: true,
	})
	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want header + 1 row: %q", len(lines), buf.String())
	}
	if lines[0] != strings.Join(TimeSeriesSchema, ",") {
		t.Fatalf("header %q does not match TimeSeriesSchema", lines[0])
	}
	if lines[1] != "7,2,3,2,1,4,5,5,1,2,6,8,9,1" {
		t.Fatalf("row %q, want 7,2,3,2,1,4,5,5,1,2,6,8,9,1", lines[1])
	}
}

// TestHeatmapFold pins the fold of the census's call-scoped views: sums
// integrate across flushes, peaks take the max, and the CSV emits every
// node but only the links that ever stalled.
func TestHeatmapFold(t *testing.T) {
	h := NewHeatmap(4, 2)
	resident := []int32{0, 2, 0, 1}
	stalls := []int32{0, 3, 0, 0, 0, 0, 0, 0}
	h.ObserveStep(engine.StepCensus{
		Resident: resident, LinkStalls: stalls,
		LinkStallsDirty: []int32{1}, NumDirs: 2,
	})
	resident[1], resident[3] = 1, 0
	stalls[1], stalls[6] = 1, 2
	h.ObserveStep(engine.StepCensus{
		Resident: resident, LinkStalls: stalls,
		LinkStallsDirty: []int32{1, 6}, NumDirs: 2,
	})
	if h.samples != 2 {
		t.Fatalf("samples %d, want 2", h.samples)
	}
	if peak, total := h.Resident(1); peak != 2 || total != 3 {
		t.Fatalf("node 1 residency peak=%d total=%d, want 2/3", peak, total)
	}
	if peak, total := h.Resident(3); peak != 1 || total != 1 {
		t.Fatalf("node 3 residency peak=%d total=%d, want 1/1", peak, total)
	}
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + 4 node rows + 2 stalled-link rows.
	if len(lines) != 7 {
		t.Fatalf("%d CSV lines, want 7:\n%s", len(lines), buf.String())
	}
	if lines[0] != strings.Join(HeatmapSchema, ",") {
		t.Fatalf("header %q does not match HeatmapSchema", lines[0])
	}
	if lines[2] != "node,1,-1,2,3,1.5" {
		t.Fatalf("node 1 row %q, want node,1,-1,2,3,1.5", lines[2])
	}
	// Link 1 = node 0, dir 1: stalls 3 then 1.
	if lines[5] != "link,0,1,3,4,2" {
		t.Fatalf("link 1 row %q, want link,0,1,3,4,2", lines[5])
	}
	// Link 6 = node 3, dir 0.
	if lines[6] != "link,3,0,2,2,1" {
		t.Fatalf("link 6 row %q, want link,3,0,2,2,1", lines[6])
	}
}

// TestSetFanOut pins the multiplexer: every registered recorder sees the
// census, and a census recorder that also observes latencies is
// auto-registered for both streams by AddProbe.
func TestSetFanOut(t *testing.T) {
	var set Set
	ts := NewTimeSeries(8)
	hm := NewHeatmap(4, 2)
	lh := NewLatencyHist()
	var snap Snapshot
	set.AddProbe(ts)
	set.AddProbe(hm)
	set.AddProbe(&snap)
	set.AddLatency(lh)
	set.AddProbe(&dualRecorder{})
	set.ObserveStep(engine.StepCensus{Step: 1, Steps: 1, Injected: 2})
	set.ObserveLatency(5)
	set.ObserveLatency(9)
	if len(ts.Rows()) != 1 || hm.samples != 1 || snap.State().Injected != 2 {
		t.Fatalf("census fan-out missed a recorder: ts=%d hm=%d snap=%+v",
			len(ts.Rows()), hm.samples, snap.State())
	}
	var hist bytes.Buffer
	if err := lh.WriteCSV(&hist); err != nil {
		t.Fatal(err)
	}
	if want := "lo,hi,count,cum\n5,5,1,1\n9,9,1,2\n"; hist.String() != want {
		t.Fatalf("latency fan-out missed:\n%s", hist.String())
	}
	// The dual recorder was registered once and must have seen both streams.
	d := set.probes[len(set.probes)-1].(*dualRecorder)
	if d.steps != 1 || d.lats != 2 {
		t.Fatalf("dual recorder saw %d censuses / %d latencies, want 1/2", d.steps, d.lats)
	}
}

// dualRecorder implements both engine.Probe and LatencyObserver, pinning
// AddProbe's auto-registration.
type dualRecorder struct{ steps, lats int }

func (d *dualRecorder) ObserveStep(engine.StepCensus) { d.steps++ }
func (d *dualRecorder) ObserveLatency(int)            { d.lats++ }

// TestSnapshotAccumulates pins the counter-vs-gauge split of the live
// rollup: counters sum across flushes, gauges take the latest value.
func TestSnapshotAccumulates(t *testing.T) {
	var sn Snapshot
	sn.ObserveStep(engine.StepCensus{
		Step: 1, Steps: 1, Injected: 2, Moves: 1, InFlight: 2, Gridlocked: true,
	})
	sn.ObserveStep(engine.StepCensus{
		Step: 2, Steps: 1, Delivered: 2, Moves: 2, InFlight: 0,
	})
	got := sn.State()
	want := SnapshotState{Step: 2, Steps: 2, Injected: 2, Delivered: 2, Moves: 3}
	if got != want {
		t.Fatalf("snapshot %+v, want %+v", got, want)
	}
}

// TestLatencyHistCSV pins the cumulative column and bucket ordering of the
// histogram CSV.
func TestLatencyHistCSV(t *testing.T) {
	lh := NewLatencyHist()
	for _, v := range []int{3, 3, 7, 500} {
		lh.ObserveLatency(v)
	}
	var buf bytes.Buffer
	if err := lh.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != strings.Join(HistSchema, ",") {
		t.Fatalf("header %q does not match HistSchema", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("%d lines, want header + 3 buckets:\n%s", len(lines), buf.String())
	}
	if lines[1] != "3,3,2,2" || lines[2] != "7,7,1,3" {
		t.Fatalf("exact-range rows %q / %q, want 3,3,2,2 and 7,7,1,3", lines[1], lines[2])
	}
	if !strings.HasSuffix(lines[3], ",1,4") {
		t.Fatalf("last row %q: cumulative count should end ,1,4", lines[3])
	}
}

// TestManifestRoundtrip pins the sidecar path convention and that a
// written manifest parses back identically.
func TestManifestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ts.csv")
	m := Manifest{
		FormatVersion: FormatVersion,
		Kind:          "timeseries",
		Schema:        TimeSeriesSchema,
		Dims:          []int{8, 8},
		Seed:          42,
		ProbeEvery:    4,
		Config:        map[string]any{"rate": 0.25},
	}
	if err := m.Write(out); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out + ".manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	got.Config = nil
	m.Config = nil
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest roundtrip:\n got %+v\nwant %+v", got, m)
	}
	if !bytes.HasSuffix(b, []byte("\n")) {
		t.Fatal("manifest file does not end with a newline")
	}
}

// TestProbedStepAllocFree is the package's headline contract: a contention
// step observed by the FULL recorder set — time series, heatmap, latency
// histogram and live snapshot, census flush plus latency feed — allocates
// nothing in steady state.
func TestProbedStepAllocFree(t *testing.T) {
	m, err := meshtest.NewUniform(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	shape := m.Shape()
	e := engine.New(core.New(m), 1, nil)
	e.EnableContention(engine.ContentionConfig{LinkRate: 1, NodeCapacity: 4})

	set := &Set{}
	set.AddProbe(NewTimeSeries(64)) // deliberately small: wrap-around must not allocate
	set.AddProbe(NewHeatmap(shape.NumNodes(), shape.NumDirs()))
	set.AddProbe(&Snapshot{})
	set.AddLatency(NewLatencyHist())
	e.SetProbe(set)

	// Long-haul cross traffic, re-injected on delivery so the standing
	// population (and the latency feed) never dries up.
	pairs := [][2]grid.Coord{
		{{1, 1}, {14, 14}}, {{14, 14}, {1, 1}},
		{{14, 1}, {1, 14}}, {{1, 14}, {14, 1}},
		{{1, 7}, {14, 7}}, {{14, 8}, {1, 8}},
		{{7, 1}, {7, 14}}, {{8, 14}, {8, 1}},
	}
	inject := func() {
		for _, p := range pairs {
			if _, err := e.Inject(shape.Index(p[0]), shape.Index(p[1]), route.Limited{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	inject()
	harvest := func(fl *engine.Flight) {
		if fl.Msg.Arrived {
			set.ObserveLatency(fl.Msg.Steps)
		}
	}
	step := func() {
		e.Step()
		e.DetachDone(harvest)
		if len(e.Flights()) == 0 {
			inject()
		}
		e.FlushCensus()
	}
	for i := 0; i < 200; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(300, step); allocs != 0 {
		t.Errorf("fully probed step allocates %.1f/op, want 0", allocs)
	}
}
