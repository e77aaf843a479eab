package ndmesh

import (
	"encoding/json"
	"reflect"
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
		LoadOptions{},
	} {
		if _, err := json.Marshal(opt); err != nil {
			t.Errorf("%T: %v", opt, err)
		}
	}
}

// foreignValues holds, for every field some entry point rejects, a value
// that sets it.
var foreignValues = map[string]any{
	"Rates": []float64{0.1}, "Windows": []int{2}, "FaultRates": []float64{0.01},
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
// is set; replay-compare names the LoadOptions fields its arms cannot share.
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
		routers := []string{"limited", "dor"}
		if _, err := ReplayCompareSweepWorkers(LoadOptions{Replay: rec}, routers, 1); err != nil {
			t.Errorf("plain replay rejected: %v", err)
		}
		for name, mutate := range map[string]func(*LoadOptions){
			"Router": func(o *LoadOptions) { o.Router = "limited" },
			"Record": func(o *LoadOptions) { o.Record = &traffic.Trace{} },
			"Probe":  func(o *LoadOptions) { o.Probe = &probe.Snapshot{} },
		} {
			o := LoadOptions{Replay: rec}
			mutate(&o)
			if _, err := ReplayCompareSweepWorkers(o, routers, 1); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s set: error = %v, want one naming the field", name, err)
			}
		}
	})
}

// TestSweepCellCarriesEverySharedField holds the one options-to-options
// copy, LoadSweepOptions.cell, to the two structs: every field they share
// by name and type, set to a value no other field has, must reach the base
// cell under each of the five sweeps' row types, so a field added to both
// later cannot be dropped on the way. Shards is the one exception: both
// structs keep it only for bench/batch.go, and nothing else may read it
// (TestShardResidue).
func TestSweepCellCarriesEverySharedField(t *testing.T) {
	t.Run("saturation", sweepCellCarries[SaturationRow])
	t.Run("congestion", sweepCellCarries[CongestionShiftRow])
	t.Run("closed-loop", sweepCellCarries[ClosedLoopRow])
	t.Run("gridlock", sweepCellCarries[GridlockRow])
	t.Run("reliability", sweepCellCarries[ReliabilityRow])
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
	if len(shared) < 26 {
		t.Fatalf("only %d fields are shared by name and type (%v); the test lost its subject", len(shared), shared)
	}
	cell := opt.cell()
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
