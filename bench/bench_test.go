package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ndmesh"
	"ndmesh/internal/traffic"
)

// declared is BENCHMARK.json as the contract's driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readDeclared(t *testing.T, root string) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d declared
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// TestBenchQuick runs every workload in smoke mode and holds the output to
// what BENCHMARK.json declares: each named workload and metric emitted
// exactly once with a finite value, no failed op, and the traced replica
// reproducing the library's results.
func TestBenchQuick(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl := readDeclared(t, root)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads declared, want 2..8", n)
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics declared, want 1..16", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics declared, want 1..128", n)
	}

	// The declaration and the tables in metrics.go must be the same list.
	sameDefs := func(kind string, got []declaredMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, metrics.go %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if !nameRE.MatchString(g.Name) {
				t.Errorf("%s metric name %q is outside [A-Za-z0-9_.-]", kind, g.Name)
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, metrics.go %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s %s: bound %v, metrics.go %v (must be in (0, 0.25])", kind, g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s carries a bound; per-layer metrics have none", kind, g.Name)
			}
		}
	}
	sameDefs("end_to_end", decl.EndToEnd, endToEnd, true)
	sameDefs("per_layer", decl.PerLayer, perLayer, false)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
		if w.Why != workloads[i].why {
			t.Errorf("workload %s: BENCHMARK.json's why differs from the benchmark's", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	out := t.TempDir()
	cfg := &config{seed: 1, reps: 2, quick: true, untraced: true, traced: true, root: root, outDir: out}
	var table bytes.Buffer
	doc, err := run(cfg, "", filepath.Join(out, "results.json"), &table)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("ran %d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	lines := strings.Split(strings.TrimSpace(table.String()), "\n")
	for i, res := range doc.Workloads {
		if res.Name != workloads[i].name {
			t.Errorf("workload %d is %s, want %s", i, res.Name, workloads[i].name)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: %d of %d ops failed their checks", res.Name, res.Failed, res.Attempted)
		}
		if len(res.RowsSHA256) != 64 {
			t.Errorf("%s: rows_sha256 %q", res.Name, res.RowsSHA256)
		}
		emitted := func(kind string, defs []metricDef, got []sample) {
			count := map[string]int{}
			for _, s := range got {
				count[s.Metric]++
				if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
					t.Errorf("%s %s: value %v is not finite", res.Name, s.Metric, s.Value)
				}
			}
			for _, d := range defs {
				want := 0
				if d.appliesTo(res.Name) {
					want = 1
				}
				if count[d.name] != want {
					t.Errorf("%s: %s metric %s emitted %d times, want %d", res.Name, kind, d.name, count[d.name], want)
				}
				delete(count, d.name)
			}
			for name := range count {
				t.Errorf("%s: emitted undeclared %s metric %s", res.Name, kind, name)
			}
		}
		emitted("end-to-end", endToEnd, res.EndToEnd)
		emitted("per-layer", perLayer, res.PerLayer)
		for _, s := range res.EndToEnd {
			if s.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", res.Name, s.Metric)
			}
		}
		for _, s := range res.PerLayer {
			if s.Metric == "trace.replica_match" && s.Value != 1 {
				t.Errorf("%s: the traced replica does not reproduce the library's rows", res.Name)
			}
			if s.Metric == "cmd.parity_ok" && s.Value != 1 {
				t.Errorf("%s: cmd/loadgen's row differs from the in-process row", res.Name)
			}
		}

		// The contract line carries every declared metric exactly once.
		var line struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		raw := lines[len(lines)-len(workloads)+i]
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatalf("%s: result line: %v", res.Name, err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted != res.Attempted {
			t.Errorf("%s: result line says correct=%v attempted=%d failed=%d", res.Name, line.Correct, line.Attempted, line.Failed)
		}
		if want := len(endToEnd) + len(perLayer); len(line.Metrics) != want {
			t.Errorf("%s: result line has %d metrics, want %d", res.Name, len(line.Metrics), want)
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if m, ok := line.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: result line lacks %s [%s]", res.Name, d.name, d.unit)
			}
		}
	}
	for _, f := range []string{"results.json", "spans.json"} {
		if st, err := os.Stat(filepath.Join(out, f)); err != nil || st.Size() == 0 {
			t.Errorf("%s was not written: %v", f, err)
		}
	}
}

// TestFailedOpsAreCounted corrupts a row and refuses a request, and
// expects both to count as failed ops rather than pass silently.
func TestFailedOpsAreCounted(t *testing.T) {
	b := newStepSaturated(1, true)
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	rows, _, err := b.body(plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed := b.judge(rows, nil); failed != 0 {
		t.Fatalf("an honest body fails %d ops", failed)
	}
	pt := rows[0].(traffic.LoadPoint)
	pt.Delivered++ // one flight delivered that was never injected
	if _, failed := b.judge([]any{pt}, nil); failed != b.ops {
		t.Errorf("a row breaking conservation failed %d ops, want %d", failed, b.ops)
	}
	if conserves(ndmesh.SaturationRow{Offered: 3, Injected: 3, Delivered: 2}) {
		t.Error("a saturation row that loses a flight passes the conservation check")
	}

	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "admission queue full", http.StatusServiceUnavailable)
	}))
	defer refusing.Close()
	m := &missLoad{meshd: &meshd{client: refusing.Client(), url: refusing.URL}, perRep: 3, proto: newSpec(0, true)}
	if out := m.rep(1); out.failed != 3 {
		t.Errorf("3 refused requests counted as %d failed ops", out.failed)
	}
}

// TestCompareVerdicts pins the regression rule of -compare.
func TestCompareVerdicts(t *testing.T) {
	lowerIsBetter := metricDef{name: "req_p50_ms", better: lower, bound: 0.10}
	higherIsBetter := metricDef{name: "req_per_s", better: higher, bound: 0.10}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 15} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.8, Q3: m * 1.2, N: 15} }
	for _, c := range []struct {
		def  metricDef
		a, b summary
		want string
	}{
		{lowerIsBetter, tight(100), tight(105), "ok"},
		{lowerIsBetter, tight(100), tight(120), "worse"},
		{lowerIsBetter, tight(100), tight(80), "ok"},
		{higherIsBetter, tight(100), tight(80), "worse"},
		{higherIsBetter, tight(100), tight(120), "ok"},
		{lowerIsBetter, wide(100), wide(115), "unresolved"},
		{lowerIsBetter, wide(100), tight(200), "worse"}, // ranges apart: resolved despite the spread
	} {
		if _, got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: A %v vs B %v judged %s, want %s", c.def.name, c.a, c.b, got, c.want)
		}
	}
}
