package ndmesh

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ndmesh/internal/probe"
	"ndmesh/internal/traffic"
)

// TestOptionsMarshal: every options value embeds in a telemetry manifest as
// it is — its hooks and probe carry json:"-", which encoding/json needs
// even of a nil func.
func TestOptionsMarshal(t *testing.T) {
	for _, opt := range []any{
		DefaultSaturation(), DefaultClosedLoop(), DefaultReliability(),
		DefaultCongestionShift(), DefaultGridlock(), DefaultDegradation(),
		ReplayCompareOptions{}, LoadOptions{},
	} {
		if _, err := json.Marshal(opt); err != nil {
			t.Errorf("%T: %v", opt, err)
		}
	}
}

// foreignValues holds, for every field some entry point rejects, a value
// that sets it.
var foreignValues = map[string]any{
	"Patterns": []string{"uniform"}, "Rates": []float64{0.1}, "Windows": []int{2}, "FaultRates": []float64{0.01},
	"Capacities": []int{2}, "FaultCounts": []int{1}, "Mechanisms": []string{"none"},
	"Trials": 2, "Rate": 0.1, "Process": "bernoulli",
	"NodeCapacity": 4, "Bubble": true,
	"Faults": 1, "FaultRate": 0.01, "FaultInterval": 10, "FaultStart": 3,
	"Probe": &probe.Snapshot{},
	// Neither the congestion pair nor a single router.
	"Routers": []string{"limited", "dor"},
}

// axisRules runs one entry point on its library defaults (phases cut short),
// which must pass, and then once per foreign field with that field set,
// which must fail with an error naming the field.
func axisRules[Row any](t *testing.T, opt LoadSweepOptions[Row],
	sweep func(LoadSweepOptions[Row], uint64, int) ([]Row, error), foreign ...string) {
	t.Helper()
	opt.Dims, opt.Warmup, opt.Measure, opt.Drain = []int{4, 4}, 4, 8, 8
	if _, err := sweep(opt, 1, 1); err != nil {
		t.Errorf("library defaults rejected: %v", err)
	}
	for _, name := range foreign {
		o := opt
		reflect.ValueOf(&o).Elem().FieldByName(name).Set(reflect.ValueOf(foreignValues[name]))
		if _, err := sweep(o, 1, 1); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s set: error = %v, want one naming the field", name, err)
		}
	}
}

// gridlockAxes are the gridlock sweep's axes besides Windows, foreign to
// every other entry point.
var gridlockAxes = []string{"Capacities", "FaultCounts", "Mechanisms"}

// TestSweepAxisRules is the axis table of ARCHITECTURE.md ("An experiment"):
// each entry point takes its own axes and names any field of another's that
// is set; replay-compare names every grid axis, and a probe limits it to
// one router, before any arm runs.
func TestSweepAxisRules(t *testing.T) {
	t.Run("open-loop", func(t *testing.T) {
		axisRules(t, DefaultSaturation(), SaturationSweepWorkers,
			append([]string{"Windows", "FaultRates", "Trials", "Rate"}, gridlockAxes...)...)
	})
	t.Run("congestion", func(t *testing.T) {
		axisRules(t, DefaultCongestionShift(), func(o CongestionShiftOptions, seed uint64, workers int) ([]CongestionShiftRow, error) {
			rows, _, err := CongestionShiftSweepWorkers(o, seed, workers)
			return rows, err
		}, append([]string{"Routers", "Windows", "FaultRates", "Trials", "Rate", "Probe"}, gridlockAxes...)...)
	})
	t.Run("closed-loop", func(t *testing.T) {
		axisRules(t, DefaultClosedLoop(), ClosedLoopSweepWorkers,
			append([]string{"Rates", "FaultRates", "Trials", "Rate", "Process"}, gridlockAxes...)...)
	})
	t.Run("gridlock", func(t *testing.T) {
		axisRules(t, DefaultGridlock(), GridlockSweepWorkers,
			"Routers", "Rates", "FaultRates", "Trials", "Rate", "Process",
			"NodeCapacity", "Faults", "Bubble", "FaultRate", "Probe")
	})
	t.Run("reliability", func(t *testing.T) {
		axisRules(t, DefaultReliability(), ReliabilitySweepWorkers,
			append([]string{"Rates", "Windows", "Faults", "FaultRate", "FaultInterval", "FaultStart", "Probe"}, gridlockAxes...)...)
	})
	t.Run("replay-compare", func(t *testing.T) {
		rec := &traffic.Trace{}
		if _, err := LoadRun(LoadOptions{
			Dims: []int{4, 4}, Router: "limited", Pattern: "uniform", Rate: 0.1,
			Warmup: 4, Measure: 8, Drain: 8, Record: rec,
		}); err != nil {
			t.Fatal(err)
		}
		opt := ReplayCompareOptions{Routers: []string{"limited", "dor"}, Replay: rec}
		if _, err := ReplayCompareSweepWorkers(opt, 1, 1); err != nil {
			t.Errorf("plain replay rejected: %v", err)
		}
		for _, name := range append([]string{"Patterns", "Rates", "Windows", "FaultRates", "Trials", "Probe"}, gridlockAxes...) {
			pool, calls := NewEnginePool(1), 0
			o := opt
			o.Pool, o.Progress = pool, func(int, int) { calls++ }
			reflect.ValueOf(&o).Elem().FieldByName(name).Set(reflect.ValueOf(foreignValues[name]))
			want := "does not take " + name
			if name == "Probe" {
				want = "must be a single cell (got 2)"
			}
			if _, err := ReplayCompareSweepWorkers(o, 1, 1); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s set: error = %v, want one saying %q", name, err, want)
			}
			if st := pool.Stats(); calls != 0 || st != (PoolStats{}) {
				t.Errorf("%s set: an arm ran before the refusal (%d progress calls, pool %+v)", name, calls, st)
			}
		}
	})
}

// TestReplayCompareOneRouterIsLoadRun: a comparison of one router is a
// single cell, so it takes a probe as a one-cell sweep does, and it is
// LoadRun's replay: the same point and the same census. Re-recording a
// replay is LoadRun's alone, and it writes the bytes it replayed.
func TestReplayCompareOneRouterIsLoadRun(t *testing.T) {
	rec := &traffic.Trace{}
	if _, err := LoadRun(LoadOptions{
		Dims: []int{6, 6}, Router: "limited", Pattern: "transpose", Rate: 0.25,
		Warmup: 16, Measure: 48, Drain: 48, NodeCapacity: 4, Faults: 2, Seed: 3, Record: rec,
	}); err != nil {
		t.Fatal(err)
	}
	runTS, cmpTS, rerec := probe.NewTimeSeries(256), probe.NewTimeSeries(256), &traffic.Trace{}
	pt, err := LoadRun(LoadOptions{Router: "congested", Replay: rec, Probe: runTS, Record: rerec})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ReplayCompareSweepWorkers(ReplayCompareOptions{Routers: []string{"congested"}, Replay: rec, Probe: cmpTS}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Router != "congested" || !reflect.DeepEqual(rows[0].Point, pt) {
		t.Errorf("one-router comparison diverged from LoadRun:\n got %+v\nwant %+v", rows, pt)
	}
	var runCSV, cmpCSV strings.Builder
	if err := runTS.WriteCSV(&runCSV); err != nil {
		t.Fatal(err)
	}
	if err := cmpTS.WriteCSV(&cmpCSV); err != nil {
		t.Fatal(err)
	}
	if runCSV.String() != cmpCSV.String() || runCSV.Len() == 0 {
		t.Error("one-router comparison's census differs from LoadRun's")
	}
	if !slices.Equal(rerec.Marshal(), rec.Marshal()) || len(rerec.Faults) == 0 {
		t.Error("LoadRun re-recorded its replay as other bytes than the trace it replayed")
	}
}

// TestSweepCellCarriesEverySharedField holds the one options-to-options
// copy, LoadSweepOptions.Cell, to the two structs: every field they share
// by name and type, set to a value no other field has, must reach the base
// cell under each of the six sweeps' row types, so a field added to both
// later cannot be dropped on the way. Shards is the one exception: both
// structs keep it only for bench/batch.go, and nothing else may read it
// (TestShardResidue).
func TestSweepCellCarriesEverySharedField(t *testing.T) {
	t.Run("saturation", sweepCellCarries[SaturationRow])
	t.Run("congestion", sweepCellCarries[CongestionShiftRow])
	t.Run("closed-loop", sweepCellCarries[ClosedLoopRow])
	t.Run("gridlock", sweepCellCarries[GridlockRow])
	t.Run("reliability", sweepCellCarries[ReliabilityRow])
	t.Run("replay-compare", sweepCellCarries[ReplayCompareRow])
}

func sweepCellCarries[Row any](t *testing.T) {
	var opt LoadSweepOptions[Row]
	ov := reflect.ValueOf(&opt).Elem()
	ct := reflect.TypeOf(LoadOptions{})
	var shared []string
	for i := 0; i < ov.NumField(); i++ {
		f := ov.Type().Field(i)
		if cf, ok := ct.FieldByName(f.Name); !ok || cf.Type != f.Type || f.Name == "Shards" {
			continue
		}
		shared = append(shared, f.Name)
		switch v := ov.Field(i); v.Interface().(type) {
		case int:
			v.SetInt(int64(i + 1))
		case float64:
			v.SetFloat(float64(i) + 0.5)
		case string:
			v.SetString(f.Name)
		case bool:
			v.SetBool(true)
		case []int:
			v.Set(reflect.ValueOf([]int{i + 1}))
		case *EnginePool:
			v.Set(reflect.ValueOf(NewEnginePool(i)))
		case *traffic.Trace:
			v.Set(reflect.ValueOf(&traffic.Trace{Window: i}))
		case func() bool:
			v.Set(reflect.ValueOf(func() bool { return false }))
		case func(done, total int):
			v.Set(reflect.ValueOf(func(done, total int) {}))
		default:
			if f.Type != reflect.TypeOf(&opt.Probe).Elem() {
				t.Fatalf("LoadSweepOptions.%s has a type this test cannot fill: %s", f.Name, f.Type)
			}
			v.Set(reflect.ValueOf(&stepCounter{}))
		}
	}
	if len(shared) < 27 {
		t.Fatalf("only %d fields are shared by name and type (%v); the test lost its subject", len(shared), shared)
	}
	cell := opt.Cell()
	cv := reflect.ValueOf(cell)
	for _, name := range shared {
		got, want := cv.FieldByName(name), ov.FieldByName(name)
		same := false
		if want.Kind() == reflect.Func {
			same = !got.IsNil() && got.Pointer() == want.Pointer()
		} else {
			same = reflect.DeepEqual(got.Interface(), want.Interface())
		}
		if !same {
			t.Errorf("LoadSweepOptions.%s = %v reached the cell as %v", name, want, got)
		}
	}
}

// withUnknown returns axis with "nope" in each position: alone, after every
// name and before every name.
func withUnknown(axis []string) [][]string {
	return [][]string{{"nope"}, append(slices.Clone(axis), "nope"), append([]string{"nope"}, axis...)}
}

// refusedUpFront runs one entry point on its library defaults (phases cut
// short) with an unknown router, then an unknown pattern, in every position
// of the axis: each run must fail naming it before any cell — no Emit, and
// the caller's pool never checked out or built — and Check must refuse the
// same options with the same error.
func refusedUpFront[Row any](t *testing.T, opt LoadSweepOptions[Row],
	sweep func(LoadSweepOptions[Row], uint64, int) ([]Row, error)) {
	t.Helper()
	opt.Dims, opt.Warmup, opt.Measure, opt.Drain = []int{4, 4}, 4, 8, 8
	if len(opt.Routers) == 0 {
		opt.Routers = []string{"limited"}
	}
	var bad []LoadSweepOptions[Row]
	for _, routers := range withUnknown(opt.Routers) {
		o := opt
		o.Routers = routers
		bad = append(bad, o)
	}
	for _, patterns := range withUnknown(opt.Patterns) {
		o := opt
		o.Patterns = patterns
		bad = append(bad, o)
	}
	for _, o := range bad {
		pool := NewEnginePool(1)
		emitted := 0
		o.Pool, o.Emit = pool, func(int, Row) { emitted++ }
		_, err := sweep(o, 1, 1)
		if err == nil || !strings.Contains(err.Error(), "nope") {
			t.Errorf("routers %v, patterns %v: error = %v, want one naming the unknown name", o.Routers, o.Patterns, err)
			continue
		}
		if st := pool.Stats(); emitted != 0 || st.Built != 0 || st.Acquired != 0 {
			t.Errorf("routers %v, patterns %v: %d rows emitted, pool %+v before the refusal", o.Routers, o.Patterns, emitted, st)
		}
		if _, cerr := o.Check(); cerr == nil || cerr.Error() != err.Error() {
			t.Errorf("routers %v, patterns %v: Check = %v, the sweep's error %v", o.Routers, o.Patterns, cerr, err)
		}
	}
}

// TestUnknownNameFailsBeforeAnyCell: every load entry point refuses an
// unknown router or pattern, wherever it sits in its axis, in its pre-run
// check — not in the first cell that would build it.
func TestUnknownNameFailsBeforeAnyCell(t *testing.T) {
	t.Run("saturation", func(t *testing.T) { refusedUpFront(t, DefaultSaturation(), SaturationSweepWorkers) })
	t.Run("congestion", func(t *testing.T) {
		refusedUpFront(t, DefaultCongestionShift(), func(o CongestionShiftOptions, seed uint64, workers int) ([]CongestionShiftRow, error) {
			rows, _, err := CongestionShiftSweepWorkers(o, seed, workers)
			return rows, err
		})
	})
	t.Run("closed-loop", func(t *testing.T) { refusedUpFront(t, DefaultClosedLoop(), ClosedLoopSweepWorkers) })
	t.Run("gridlock", func(t *testing.T) { refusedUpFront(t, DefaultGridlock(), GridlockSweepWorkers) })
	t.Run("reliability", func(t *testing.T) {
		opt := DefaultReliability()
		opt.Trials = 2
		refusedUpFront(t, opt, ReliabilitySweepWorkers)
	})

	live := LoadOptions{Dims: []int{4, 4}, Router: "limited", Pattern: "uniform", Rate: 0.1, Warmup: 4, Measure: 8, Drain: 8}
	rec := &traffic.Trace{}
	o := live
	o.Record = rec
	if _, err := LoadRun(o); err != nil {
		t.Fatal(err)
	}
	bad := map[string]LoadOptions{}
	for name, mutate := range map[string]func(*LoadOptions){
		"router":        func(o *LoadOptions) { o.Router = "nope" },
		"pattern":       func(o *LoadOptions) { o.Pattern = "nope" },
		"closed-loop":   func(o *LoadOptions) { o.Pattern, o.Window = "nope", 2 },
		"replay-router": func(o *LoadOptions) { *o = LoadOptions{Router: "nope", Replay: rec} },
	} {
		o := live
		mutate(&o)
		bad[name] = o
	}
	for name, o := range bad {
		pool := NewEnginePool(1)
		o.Pool = pool
		_, err := LoadRun(o)
		if err == nil || !strings.Contains(err.Error(), "nope") {
			t.Errorf("LoadRun %s: error = %v, want one naming the unknown name", name, err)
		} else if st := pool.Stats(); st.Built != 0 || st.Acquired != 0 {
			t.Errorf("LoadRun %s: pool %+v before the refusal", name, st)
		}
		if _, cerr := o.Check(); cerr == nil || err != nil && cerr.Error() != err.Error() {
			t.Errorf("LoadRun %s: Check = %v, LoadRun's error %v", name, cerr, err)
		}
	}
	for _, routers := range withUnknown([]string{"limited", "dor"}) {
		pool := NewEnginePool(1)
		o := ReplayCompareOptions{Routers: routers, Replay: rec, Pool: pool}
		_, err := ReplayCompareSweepWorkers(o, 1, 1)
		if err == nil || !strings.Contains(err.Error(), "nope") {
			t.Errorf("replay comparison over %v: error = %v, want one naming the unknown router", routers, err)
		} else if st := pool.Stats(); st.Built != 0 || st.Acquired != 0 {
			t.Errorf("replay comparison over %v: pool %+v before the refusal", routers, st)
		}
		if _, cerr := o.Check(); cerr == nil || err != nil && cerr.Error() != err.Error() {
			t.Errorf("replay comparison over %v: Check = %v, the sweep's error %v", routers, cerr, err)
		}
	}
}

// TestCheckAllocatesNothing holds the entry points' exported pre-run check
// to no allocation on options it passes — every library default, a bursty
// and a weibull spelling, a load run, a replay and a replay comparison of
// one router and of three — so a server can check each request up front
// for free.
func TestCheckAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	bursty := DefaultSaturation()
	bursty.Process, bursty.Rates = "bursty", []float64{0.1, 0.2}
	weibull := DefaultReliability()
	weibull.FaultModel = "weibull"
	gridlock := DefaultGridlock()
	gridlock.Routers, gridlock.FaultCounts, gridlock.Mechanisms = nil, nil, nil
	rec := &traffic.Trace{}
	if _, err := LoadRun(LoadOptions{Dims: []int{4, 4}, Router: "limited", Pattern: "uniform", Rate: 0.1,
		Warmup: 4, Measure: 8, Drain: 8, Record: rec}); err != nil {
		t.Fatal(err)
	}
	for name, check := range map[string]func() (int, error){
		"saturation":      DefaultSaturation().Check,
		"bursty":          bursty.Check,
		"congestion":      DefaultCongestionShift().Check,
		"closed-loop":     DefaultClosedLoop().Check,
		"gridlock":        DefaultGridlock().Check,
		"gridlock-bare":   gridlock.Check,
		"reliability":     DefaultReliability().Check,
		"weibull":         weibull.Check,
		"load-run":        LoadOptions{Dims: []int{8, 8}, Router: "oracle", Pattern: "hotspot", Process: "bursty", Rate: 0.1, Measure: 8}.Check,
		"load-run-loop":   LoadOptions{Dims: []int{8, 8}, Router: "dor", Pattern: "uniform", Window: 2, Measure: 8}.Check,
		"load-run-replay": LoadOptions{Router: "congested", Replay: rec}.Check,
		"replay-compare":  ReplayCompareOptions{Routers: []string{"congested"}, Replay: rec}.Check,
		"replay-compare3": ReplayCompareOptions{Routers: []string{"limited", "congested", "dor"}, Replay: rec}.Check,
	} {
		if _, err := check(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := testing.AllocsPerRun(100, func() { _, _ = check() }); got != 0 {
			t.Errorf("%s: Check allocates %v times", name, got)
		}
	}
}

// TestCheckRows: Check counts the rows the sweep returns.
func TestCheckRows(t *testing.T) {
	rowsOf := func(name string, want int, check func() (int, error)) {
		t.Helper()
		if got, err := check(); err != nil || got != want {
			t.Errorf("%s: Check = %d, %v; the sweep returned %d rows", name, got, err, want)
		}
	}
	short := func(dims *[]int, warmup, measure, drain *int) {
		*dims, *warmup, *measure, *drain = []int{4, 4}, 2, 4, 4
	}
	sat := DefaultSaturation()
	short(&sat.Dims, &sat.Warmup, &sat.Measure, &sat.Drain)
	sat.Rates = sat.Rates[:2]
	rows, err := SaturationSweepWorkers(sat, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rowsOf("saturation", len(rows), sat.Check)
	cs := DefaultCongestionShift()
	short(&cs.Dims, &cs.Warmup, &cs.Measure, &cs.Drain)
	cs.Rates = cs.Rates[:2]
	crows, _, err := CongestionShiftSweepWorkers(cs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rowsOf("congestion", len(crows), cs.Check)
	cl := DefaultClosedLoop()
	short(&cl.Dims, &cl.Warmup, &cl.Measure, &cl.Drain)
	cl.Windows = cl.Windows[:2]
	clrows, err := ClosedLoopSweepWorkers(cl, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rowsOf("closed-loop", len(clrows), cl.Check)
	gl := DefaultGridlock()
	short(&gl.Dims, &gl.Warmup, &gl.Measure, &gl.Drain)
	gl.Patterns, gl.Windows, gl.FaultCounts = gl.Patterns[:1], gl.Windows[:1], nil
	grows, err := GridlockSweepWorkers(gl, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rowsOf("gridlock", len(grows), gl.Check)
	rel := DefaultReliability()
	short(&rel.Dims, &rel.Warmup, &rel.Measure, &rel.Drain)
	rel.Trials, rel.FaultRates = 2, rel.FaultRates[:2]
	rrows, err := ReliabilitySweepWorkers(rel, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rowsOf("reliability", len(rrows), rel.Check)
	rec := &traffic.Trace{}
	if _, err := LoadRun(LoadOptions{Dims: []int{4, 4}, Router: "limited", Pattern: "uniform", Rate: 0.1,
		Warmup: 2, Measure: 4, Drain: 4, Record: rec}); err != nil {
		t.Fatal(err)
	}
	for _, routers := range [][]string{{"dor"}, {"limited", "congested", "dor"}} {
		rc := ReplayCompareOptions{Routers: routers, Replay: rec}
		rcrows, err := ReplayCompareSweepWorkers(rc, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		rowsOf(fmt.Sprintf("replay-compare over %d routers", len(routers)), len(rcrows), rc.Check)
	}
}

// refusesReplay runs one grid sweep on its library defaults (a 4x4 mesh,
// phases cut short) with a trace set: the sweep and its Check must refuse
// it naming Replay, before any row is emitted or the pool is touched.
func refusesReplay[Row any](opt LoadSweepOptions[Row], sweep func(LoadSweepOptions[Row], uint64, int) ([]Row, error)) func(*testing.T) {
	return func(t *testing.T) {
		opt.Dims, opt.Warmup, opt.Measure, opt.Drain = []int{4, 4}, 4, 8, 8
		opt.Replay = &traffic.Trace{Dims: []int{4, 4}}
		pool, emitted := NewEnginePool(1), 0
		opt.Pool, opt.Emit = pool, func(int, Row) { emitted++ }
		_, err := sweep(opt, 1, 1)
		if err == nil || !strings.Contains(err.Error(), "does not take Replay") {
			t.Errorf("error = %v, want one naming Replay", err)
		} else if _, cerr := opt.Check(); cerr == nil || cerr.Error() != err.Error() {
			t.Errorf("Check = %v, the sweep's error %v", cerr, err)
		}
		if st := pool.Stats(); emitted != 0 || st != (PoolStats{}) {
			t.Errorf("%d rows emitted, pool %+v before the refusal", emitted, st)
		}
	}
}

// TestGridSweepsRefuseReplay: a trace is the replay comparison's workload
// alone, so each of the five grid sweeps refuses a set Replay by name.
func TestGridSweepsRefuseReplay(t *testing.T) {
	t.Run("saturation", refusesReplay(DefaultSaturation(), SaturationSweepWorkers))
	t.Run("congestion", refusesReplay(DefaultCongestionShift(), func(o CongestionShiftOptions, seed uint64, workers int) ([]CongestionShiftRow, error) {
		rows, _, err := CongestionShiftSweepWorkers(o, seed, workers)
		return rows, err
	}))
	t.Run("closed-loop", refusesReplay(DefaultClosedLoop(), ClosedLoopSweepWorkers))
	t.Run("gridlock", refusesReplay(DefaultGridlock(), GridlockSweepWorkers))
	t.Run("reliability", refusesReplay(DefaultReliability(), ReliabilitySweepWorkers))
}

// overInterior runs one sweep entry point on its library defaults (a 4x4
// mesh, phases cut short) with set giving it a fixed-count overlay of
// faults, and returns its error, its Check's error, and whether it emitted
// a row or touched its pool before returning.
func overInterior[Row any](opt LoadSweepOptions[Row], set func(*LoadSweepOptions[Row], int),
	sweep func(LoadSweepOptions[Row], uint64, int) ([]Row, error)) func(faults int) (err, cerr error, touched bool) {
	return func(faults int) (error, error, bool) {
		opt.Dims, opt.Warmup, opt.Measure, opt.Drain = []int{4, 4}, 4, 8, 8
		set(&opt, faults)
		pool := NewEnginePool(1)
		emitted := 0
		opt.Pool, opt.Emit = pool, func(int, Row) { emitted++ }
		_, err := sweep(opt, 1, 1)
		_, cerr := opt.Check()
		st := pool.Stats()
		return err, cerr, emitted != 0 || st.Built != 0 || st.Acquired != 0
	}
}

// TestOverInteriorFaultCountRefused: no fault lies on the outermost
// surface, so a fixed-count overlay of more faults than the mesh has
// interior nodes cannot be placed. LoadRun, LoadOptions.Check and every
// sweep that takes Faults refuse it naming the field, and the gridlock
// sweep its largest FaultCounts entry, before any cell: no row emitted and
// the pool untouched. A count the interior holds passes.
func TestOverInteriorFaultCountRefused(t *testing.T) {
	setFaults := func(o *LoadSweepOptions[SaturationRow], n int) { o.Faults = n }
	loadRun := func(dims []int, window int) func(faults int) (error, error, bool) {
		return func(faults int) (error, error, bool) {
			pool := NewEnginePool(1)
			o := LoadOptions{Dims: dims, Router: "limited", Pattern: "uniform", Rate: 0.1, Window: window,
				Warmup: 4, Measure: 8, Drain: 8, Faults: faults, Pool: pool}
			if window > 0 {
				o.Rate = 0
			}
			_, err := LoadRun(o)
			_, cerr := o.Check()
			st := pool.Stats()
			return err, cerr, st.Built != 0 || st.Acquired != 0
		}
	}
	for _, c := range []struct {
		name, field string
		interior    int
		run         func(faults int) (err, cerr error, touched bool)
	}{
		{"load-run", "Faults", 4, loadRun([]int{4, 4}, 0)},
		{"load-run-closed-3x3", "Faults", 1, loadRun([]int{3, 3}, 2)},
		{"saturation", "Faults", 4, overInterior(DefaultSaturation(), setFaults, SaturationSweepWorkers)},
		{"congestion", "Faults", 4, overInterior(DefaultCongestionShift(),
			func(o *CongestionShiftOptions, n int) { o.Faults = n },
			func(o CongestionShiftOptions, seed uint64, workers int) ([]CongestionShiftRow, error) {
				rows, _, err := CongestionShiftSweepWorkers(o, seed, workers)
				return rows, err
			})},
		{"closed-loop", "Faults", 4, overInterior(DefaultClosedLoop(),
			func(o *ClosedLoopOptions, n int) { o.Faults = n }, ClosedLoopSweepWorkers)},
		{"gridlock", "FaultCounts", 4, overInterior(DefaultGridlock(),
			func(o *GridlockOptions, n int) { o.FaultCounts = []int{0, n, 1} }, GridlockSweepWorkers)},
	} {
		err, cerr, touched := c.run(c.interior + 1)
		want := fmt.Sprintf("%s %d exceeds the %d interior nodes", c.field, c.interior+1, c.interior)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error = %v, want one saying %q", c.name, err, want)
		} else if cerr == nil || cerr.Error() != err.Error() {
			t.Errorf("%s: Check = %v, the run's error %v", c.name, cerr, err)
		}
		if touched {
			t.Errorf("%s: a row was emitted or the pool touched before the refusal", c.name)
		}
		if _, cerr, _ := c.run(c.interior); cerr != nil {
			t.Errorf("%s: Check refused %d faults, which the interior holds: %v", c.name, c.interior, cerr)
		}
	}
}
