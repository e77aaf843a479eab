package ndmesh

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ndmesh/internal/probe"
)

// TestOptionsMarshal: every options value embeds in a telemetry manifest as
// it is — its hooks and probe carry json:"-", which encoding/json needs
// even of a nil func.
func TestOptionsMarshal(t *testing.T) {
	for _, opt := range []any{
		DefaultSaturation(), DefaultClosedLoop(), DefaultReliability(),
		DefaultCongestionShift(), DefaultGridlock(), DefaultDegradation(),
		LoadOptions{}, ReplayCompareOptions{},
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
	"Trials": 2, "Rate": 0.1, "Process": "bernoulli",
	"Faults": 1, "FaultRate": 0.01, "FaultInterval": 10, "FaultStart": 3,
	"Probe": &probe.Snapshot{},
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

// TestSweepAxisRules is the axis table of ARCHITECTURE.md ("An experiment"):
// each entry point takes its own axis and names any field of another's that
// is set.
func TestSweepAxisRules(t *testing.T) {
	t.Run("open-loop", func(t *testing.T) {
		axisRules(t, DefaultSaturation(), SaturationSweepWorkers, "Windows", "FaultRates", "Trials", "Rate")
	})
	t.Run("closed-loop", func(t *testing.T) {
		axisRules(t, DefaultClosedLoop(), ClosedLoopSweepWorkers, "Rates", "FaultRates", "Trials", "Rate", "Process")
	})
	t.Run("reliability", func(t *testing.T) {
		axisRules(t, DefaultReliability(), ReliabilitySweepWorkers,
			"Rates", "Windows", "Faults", "FaultRate", "FaultInterval", "FaultStart", "Probe")
	})
}
