package server

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"ndmesh"
	"ndmesh/internal/traffic"
)

// recordedTrace builds a tiny NDWT trace for replay specs.
func recordedTrace(t testing.TB) []byte {
	t.Helper()
	var tr traffic.Trace
	_, err := ndmesh.LoadRun(ndmesh.LoadOptions{
		Dims: []int{4, 4}, Router: "limited", Pattern: "uniform",
		Rate: 0.1, Warmup: 8, Measure: 24, Drain: 32, Seed: 11,
		Record: &tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Marshal()
}

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"kind":"open-loop"}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Dims, []int{8, 8}) || s.Lambda != 1 ||
		!reflect.DeepEqual(s.Routers, []string{"limited"}) ||
		!reflect.DeepEqual(s.Patterns, []string{"uniform"}) ||
		len(s.Rates) == 0 || s.Process != "bernoulli" ||
		s.Warmup != 64 || s.Measure != 256 || s.Drain != 256 || s.LinkRate != 1 {
		t.Fatalf("defaults not folded in: %+v", s)
	}
}

func TestParseSpecRejections(t *testing.T) {
	for name, body := range map[string]string{
		"empty":             `{}`,
		"unknown-kind":      `{"kind":"sideways"}`,
		"unknown-field":     `{"kind":"open-loop","bogus":1}`,
		"trailing-data":     `{"kind":"open-loop"}{"kind":"open-loop"}`,
		"not-json":          `kind=open-loop`,
		"negative-phase":    `{"kind":"open-loop","warmup":-1}`,
		"phase-overflow":    `{"kind":"open-loop","warmup":4611686018427387904,"measure":4611686018427387904,"drain":4611686018427387904}`,
		"huge-dim":          `{"kind":"open-loop","dims":[1099511627776,1099511627776]}`,
		"too-many-nodes":    `{"kind":"open-loop","dims":[512,512]}`,
		"too-many-dims":     `{"kind":"open-loop","dims":[2,2,2,2,2,2,2,2,2]}`,
		"dim-too-small":     `{"kind":"open-loop","dims":[1,8]}`,
		"negative-rate":     `{"kind":"open-loop","rates":[-0.1]}`,
		"huge-faults":       `{"kind":"open-loop","faults":1073741824}`,
		"trials-over":       `{"kind":"reliability","trials":5000}`,
		"windows-open-loop": `{"kind":"open-loop","windows":[4]}`,
		"rates-closed-loop": `{"kind":"closed-loop","rates":[0.1]}`,
		"replay-no-trace":   `{"kind":"replay"}`,
		"replay-bad-trace":  `{"kind":"replay","trace":"bm90IGEgdHJhY2U="}`,
		"trace-off-replay":  `{"kind":"open-loop","trace":"AAAA"}`,
		"probe-multi-cell":  `{"kind":"open-loop","rates":[0.1,0.2],"probe":true}`,
		"probe-reliability": `{"kind":"reliability","probe":true}`,
		"bad-lambda":        `{"kind":"open-loop","lambda":1000}`,
		"workers-over":      `{"kind":"open-loop","workers":1000}`,
		// The rest of what the library's entry points call foreign (the
		// ndmesh.*Options alias docs) is refused here first.
		"fault-rates-open-loop":      `{"kind":"open-loop","fault_rates":[0.01]}`,
		"trials-open-loop":           `{"kind":"open-loop","trials":2}`,
		"rate-open-loop":             `{"kind":"open-loop","rate":0.1}`,
		"fault-rates-closed-loop":    `{"kind":"closed-loop","fault_rates":[0.01]}`,
		"trials-closed-loop":         `{"kind":"closed-loop","trials":2}`,
		"rate-closed-loop":           `{"kind":"closed-loop","rate":0.1}`,
		"process-closed-loop":        `{"kind":"closed-loop","process":"poisson"}`,
		"rates-reliability":          `{"kind":"reliability","rates":[0.1]}`,
		"windows-reliability":        `{"kind":"reliability","windows":[4]}`,
		"faults-reliability":         `{"kind":"reliability","faults":2}`,
		"fault-rate-reliability":     `{"kind":"reliability","fault_rate":0.01}`,
		"fault-interval-reliability": `{"kind":"reliability","fault_interval":20}`,
		"fault-start-reliability":    `{"kind":"reliability","fault_start":5}`,
		// The rest of the library's rules: each of these parsed once, was
		// admitted and failed in its first cell.
		"rate-over-process":        `{"kind":"open-loop","rates":[1.5]}`,
		"bubble-capacity-1":        `{"kind":"open-loop","bubble":true,"node_capacity":1}`,
		"fault-rate-over-1":        `{"kind":"reliability","fault_rates":[2]}`,
		"unknown-fault-model":      `{"kind":"reliability","fault_model":"nope"}`,
		"fault-rate-and-faults":    `{"kind":"open-loop","fault_rate":0.01,"faults":2}`,
		"unknown-process":          `{"kind":"open-loop","process":"nope"}`,
		"unknown-router":           `{"kind":"open-loop","routers":["nope"]}`,
		"unknown-pattern":          `{"kind":"open-loop","patterns":["nope"]}`,
		"unknown-router-after":     `{"kind":"open-loop","routers":["limited","nope"]}`,
		"unknown-router-closed":    `{"kind":"closed-loop","routers":["nope"]}`,
		"unknown-pattern-reliab":   `{"kind":"reliability","patterns":["uniform","nope"]}`,
		"window-zero":              `{"kind":"closed-loop","windows":[0]}`,
		"weibull-negative-shape":   `{"kind":"open-loop","fault_rate":0.01,"fault_model":"weibull","fault_shape":-1}`,
		"fault-start-past-the-run": `{"kind":"open-loop","fault_rate":0.01,"fault_start":600}`,
		"faults-over-interior":     `{"kind":"open-loop","dims":[4,4],"faults":20}`,
		"faults-over-interior-3x3": `{"kind":"closed-loop","dims":[3,3],"faults":2}`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseSpec([]byte(body)); err == nil {
				t.Fatalf("ParseSpec accepted %s", body)
			}
		})
	}
}

// TestParseSpecOverlongList: a list longer than maxList is refused by its
// length before anything walks (or copies) it — so an over-long list that
// also holds a bad rate reports the length.
func TestParseSpecOverlongList(t *testing.T) {
	long := "[-1" + strings.Repeat(",0.1", maxList) + "]"
	for name, body := range map[string]string{
		"rates":       `{"kind":"open-loop","rates":` + long + `}`,
		"fault-rates": `{"kind":"reliability","fault_rates":` + long + `}`,
	} {
		t.Run(name, func(t *testing.T) {
			_, err := ParseSpec([]byte(body))
			if err == nil || !strings.Contains(err.Error(), "exceeds 64 entries") {
				t.Fatalf("ParseSpec error = %v, want the list-length refusal", err)
			}
		})
	}
}

func TestParseSpecReplay(t *testing.T) {
	trace := recordedTrace(t)
	body, err := json.Marshal(map[string]any{"kind": "replay", "trace": trace, "seed": 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSpec(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Routers, []string{"limited"}) || s.rows != 1 {
		t.Fatalf("replay spec normalized wrong: %+v", s)
	}
	// normalize decodes the trace once and keeps it for the run.
	if s.trace == nil || !bytes.Equal(s.trace.Marshal(), trace) {
		t.Fatal("parsed replay spec does not carry the submitted trace")
	}

	// Workload fields on a replay spec are contradictions, not hints.
	bad, _ := json.Marshal(map[string]any{"kind": "replay", "trace": trace, "measure": 100})
	if _, err := ParseSpec(bad); err == nil {
		t.Fatal("replay spec with its own phases accepted")
	}
	// What the comparison would refuse, the replay kind refuses at parse
	// time: the fields a replay does not read among them, each once
	// accepted, ignored and keyed apart.
	for _, extra := range []string{`"routers":["nope"],`, `"bubble":true,"node_capacity":1,`, `"probe":true,`,
		`"retry_backoff":4,`, `"fault_model":"nope",`, `"fault_model":"weibull",`, `"fault_shape":1.5,`,
		`"fault_repair":40,`, `"fault_interval":10,`, `"fault_start":3,`, `"clustered":true,`} {
		if _, err := ParseSpec(replaySpec(t, extra, trace)); err == nil {
			t.Errorf("replay spec with %s accepted", extra)
		}
	}
}

// replaySpec is a replay spec body carrying trace, with extra fields (a
// JSON object's members, or empty) before it.
func replaySpec(t testing.TB, extra string, trace []byte) []byte {
	t.Helper()
	enc, err := json.Marshal(trace)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(`{"kind":"replay",` + extra + `"trace":` + string(enc) + `}`)
}

// TestParseSpecReplayBounds: a replay spec's run comes from its trace, and
// that run is bounded as every other kind's spec is — the trace's mesh,
// the effective λ (the spec's, else the trace's) and the trace's phases.
// Each trace here decodes; only the bound refuses it. Nothing is run.
func TestParseSpecReplayBounds(t *testing.T) {
	recorded, err := traffic.UnmarshalTrace(recordedTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	longDrain := *recorded
	longDrain.Drain = maxPhase // warmup + measure + drain past the cap
	for name, body := range map[string][]byte{
		"huge-mesh":       replaySpec(t, "", (&traffic.Trace{Dims: []int{46340, 46340}}).Marshal()),
		"radix-1":         replaySpec(t, "", (&traffic.Trace{Dims: []int{1, 8}}).Marshal()),
		"too-many-dims":   replaySpec(t, "", (&traffic.Trace{Dims: []int{2, 2, 2, 2, 2, 2, 2, 2, 2}}).Marshal()),
		"trace-lambda":    replaySpec(t, "", (&traffic.Trace{Dims: []int{4, 4}, Lambda: 1 << 30}).Marshal()),
		"spec-lambda":     replaySpec(t, `"lambda":2000000000,`, recordedTrace(t)),
		"long-drain":      replaySpec(t, "", (&traffic.Trace{Dims: []int{4, 4}, Drain: 1 << 24}).Marshal()),
		"total-phases":    replaySpec(t, "", longDrain.Marshal()),
		"nan-trace-rate":  replaySpec(t, "", (&traffic.Trace{Dims: []int{4, 4}, Rate: math.NaN()}).Marshal()),
		"negative-lambda": replaySpec(t, `"lambda":-1,`, recordedTrace(t)),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseSpec(body); err == nil {
				t.Fatalf("ParseSpec accepted %s", body)
			}
		})
	}
	// The bounds refuse nothing a recording within them makes.
	atBounds := *recorded
	atBounds.Dims = []int{256, 256}
	atBounds.Drain = maxPhase - atBounds.Warmup - atBounds.Measure
	if _, err := ParseSpec(replaySpec(t, `"lambda":64,`, atBounds.Marshal())); err != nil {
		t.Fatalf("a replay at the bounds was refused: %v", err)
	}
}

// TestSpecKeyContract pins the cache-key semantics the daemon's cache
// tests then observe over HTTP: key-order/whitespace insensitivity,
// omitted-vs-explicit defaults merging, Workers exclusion, and splits on
// anything that can reach the rows.
func TestSpecKeyContract(t *testing.T) {
	key := func(body string) string {
		s, err := ParseSpec([]byte(body))
		if err != nil {
			t.Fatalf("ParseSpec(%s): %v", body, err)
		}
		return s.Key()
	}
	base := key(`{"kind":"open-loop","dims":[4,4],"rates":[0.1],"seed":9}`)
	same := []string{
		`{"seed":9,"rates":[0.1],"dims":[4,4],"kind":"open-loop"}`,                            // key order
		"{\n  \"kind\": \"open-loop\", \"dims\": [4, 4],\n  \"rates\": [0.1], \"seed\": 9\n}", // whitespace
		`{"kind":"open-loop","dims":[4,4],"rates":[0.1],"seed":9,"lambda":1}`,                 // explicit default
		`{"kind":"open-loop","dims":[4,4],"rates":[0.1],"seed":9,"workers":7}`,                // fan-out width
	}
	for i, body := range same {
		if key(body) != base {
			t.Errorf("equivalent spec %d keyed differently", i)
		}
	}
	different := []string{
		`{"kind":"open-loop","dims":[4,4],"rates":[0.1],"seed":10}`,             // seed
		`{"kind":"open-loop","dims":[4,4],"rates":[0.2],"seed":9}`,              // workload
		`{"kind":"open-loop","dims":[4,6],"rates":[0.1],"seed":9}`,              // shape
		`{"kind":"open-loop","dims":[4,4],"rates":[0.1],"seed":9,"lambda":2}`,   // engine config
		`{"kind":"open-loop","dims":[4,4],"rates":[0.1],"seed":9,"faults":2}`,   // fault overlay
		`{"kind":"open-loop","dims":[4,4],"rates":[0.1],"seed":9,"probe":true}`, // probe attachment
	}
	for i, body := range different {
		if key(body) == base {
			t.Errorf("distinct spec %d shares the base key", i)
		}
	}
}

// TestParseSpecCanonicalIdempotent: re-parsing a canonical spec's own
// marshaling yields the identical struct and key — the property the fuzz
// harness then hammers with arbitrary inputs.
func TestParseSpecCanonicalIdempotent(t *testing.T) {
	for _, body := range []string{
		`{"kind":"open-loop"}`,
		`{"kind":"closed-loop","windows":[1,4],"dims":[4,4]}`,
		`{"kind":"reliability","fault_rates":[0,0.01],"trials":4}`,
	} {
		s, err := ParseSpec([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("canonical form of %s does not re-parse: %v", body, err)
		}
		if !reflect.DeepEqual(s, s2) || s.Key() != s2.Key() {
			t.Fatalf("canonicalization not idempotent for %s", body)
		}
	}
}

// FuzzSpecDecode hammers the decoder with arbitrary bytes: it must never
// panic, never accept a spec it cannot canonicalize idempotently, never
// produce a spec whose Key diverges from its own round trip, and never
// accept a spec the library's pre-run check refuses on the options the
// kind's run hands its entry point — so a spec that parses cannot fail the
// library's rules at run time. The seeded corpus covers every kind, the
// bound edges and specs only the library refuses; CI runs the corpus on
// every test run and a short fuzz session on top.
func FuzzSpecDecode(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"kind":"open-loop"}`,
		`{"kind":"open-loop","dims":[4,4],"rates":[0.05,0.2],"seed":42,"workers":2}`,
		`{"kind":"closed-loop","windows":[1,2,4],"node_capacity":4,"flight_timeout":32}`,
		`{"kind":"reliability","fault_rates":[0,0.01,0.04],"trials":8,"fault_model":"weibull","fault_shape":1.5}`,
		`{"kind":"replay","trace":"TkRXVA=="}`,
		`{"kind":"open-loop","probe":true,"rates":[0.1]}`,
		`{"kind":"open-loop","warmup":1048576,"measure":1,"drain":0}`,
		`{"kind":"open-loop","dims":[65536]}`,
		`{"kind":"open-loop","rates":[1e308]}`,
		`{"kind":"open-loop","seed":18446744073709551615}`,
		`{"kind":"open-loop","rates":[1.5]}`,
		`{"kind":"open-loop","bubble":true,"node_capacity":1}`,
		`{"kind":"reliability","fault_rates":[2]}`,
		`{"kind":"reliability","fault_model":"nope"}`,
		`{"kind":"open-loop","fault_rate":0.01,"faults":2}`,
		`{"kind":"open-loop","process":"nope"}`,
		`{"kind":"open-loop","routers":["nope"]}`,
		`{"kind":"open-loop","patterns":["nope"]}`,
		`[1,2,3]`,
		`"open-loop"`,
		strings.Repeat(`{"kind":`, 1000),
		// A one-step 2x2 recording: a replay that parses, and the same with
		// a field a replay does not read.
		`{"kind":"replay","trace":"TkRXVAICAgI/4AAAAAAAAAAAAAEAAQEAAAAAAAEEBAABAQACAQMB"}`,
		`{"kind":"replay","trace":"TkRXVAICAgI/4AAAAAAAAAAAAAEAAQEAAAAAAAEEBAABAQACAQMB","fault_model":"weibull"}`,
		// The same recording compared across two routers: two rows.
		`{"kind":"replay","routers":["limited","dor"],"trace":"TkRXVAICAgI/4AAAAAAAAAAAAAEAAQEAAAAAAAEEBAABAQACAQMB"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		// Accepted specs must be fully canonical: marshal → parse is a
		// fixed point, and the cache key survives the round trip.
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("canonical spec does not marshal: %v", err)
		}
		s2, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("canonical spec does not re-parse: %v\nspec: %s", err, out)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("canonicalization not idempotent:\n first: %+v\nsecond: %+v", s, s2)
		}
		if s.Key() != s2.Key() {
			t.Fatal("cache key changed across canonical round trip")
		}
		if c := s.rows; c < 1 || c > maxList*maxList*maxList {
			t.Fatalf("rows = %d out of bounds", c)
		}
		var rows int
		switch s.Kind {
		case KindOpenLoop:
			rows, err = sweepOptions[ndmesh.SaturationRow](s).Check()
		case KindClosedLoop:
			rows, err = sweepOptions[ndmesh.ClosedLoopRow](s).Check()
		case KindReliability:
			rows, err = sweepOptions[ndmesh.ReliabilityRow](s).Check()
		case KindReplay:
			rows, err = sweepOptions[ndmesh.ReplayCompareRow](s).Check()
		}
		if err != nil || rows != s.rows {
			t.Fatalf("parsed spec fails the library's check: %d rows (parsed %d), %v\nspec: %s", rows, s.rows, err, out)
		}
	})
}

// TestSpecDefaultsVsLibrary pins which served defaults are the library's
// and which differ on purpose, so the next drift between Spec.normalize
// and ndmesh.Default{Saturation,ClosedLoop,Reliability} is a test failure
// rather than a surprise cache-key change: a bare {"kind": K} spec must
// map onto the library default with exactly the listed fields narrowed.
func TestSpecDefaultsVsLibrary(t *testing.T) {
	bare := func(kind string) *Spec {
		t.Helper()
		s, err := ParseSpec([]byte(`{"kind":"` + kind + `"}`))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	uniform := []string{"uniform"}
	t.Run(KindOpenLoop, func(t *testing.T) {
		want := ndmesh.DefaultSaturation()
		if reflect.DeepEqual(want.Patterns, uniform) {
			t.Error("library default patterns became uniform alone; drop it from the differs-on-purpose list")
		}
		want.Patterns = uniform
		if got := sweepOptions[ndmesh.SaturationRow](bare(KindOpenLoop)); !reflect.DeepEqual(got, want) {
			t.Errorf("served open-loop defaults drifted from DefaultSaturation (patterns aside):\n got %+v\nwant %+v", got, want)
		}
	})
	t.Run(KindClosedLoop, func(t *testing.T) {
		want := ndmesh.DefaultClosedLoop()
		if reflect.DeepEqual(want.Patterns, uniform) {
			t.Error("library default patterns became uniform alone; drop it from the differs-on-purpose list")
		}
		want.Patterns = uniform
		if got := sweepOptions[ndmesh.ClosedLoopRow](bare(KindClosedLoop)); !reflect.DeepEqual(got, want) {
			t.Errorf("served closed-loop defaults drifted from DefaultClosedLoop (patterns aside):\n got %+v\nwant %+v", got, want)
		}
	})
	t.Run(KindReliability, func(t *testing.T) {
		want := ndmesh.DefaultReliability()
		if want.FaultRepair == 0 || want.FlightTimeout == 0 || want.RetryBackoff == 0 {
			t.Error("library default repair/timeout/backoff became zero; drop it from the differs-on-purpose list")
		}
		want.FaultRepair, want.FlightTimeout, want.RetryBackoff = 0, 0, 0
		if got := sweepOptions[ndmesh.ReliabilityRow](bare(KindReliability)); !reflect.DeepEqual(got, want) {
			t.Errorf("served reliability defaults drifted from DefaultReliability (repair/timeout/backoff aside):\n got %+v\nwant %+v", got, want)
		}
	})
}

// fillShared sets every Spec field that has a field of the same name and
// type in options to a value no other field has, and returns their names.
func fillShared(t *testing.T, options any) (*Spec, []string) {
	t.Helper()
	var s Spec
	sv := reflect.ValueOf(&s).Elem()
	ot := reflect.TypeOf(options)
	var shared []string
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Type().Field(i)
		if of, ok := ot.FieldByName(f.Name); !ok || of.Type != f.Type {
			continue
		}
		shared = append(shared, f.Name)
		switch v := sv.Field(i); v.Interface().(type) {
		case int:
			v.SetInt(int64(i + 1))
		case uint64:
			v.SetUint(uint64(i + 1))
		case float64:
			v.SetFloat(float64(i) + 0.5)
		case string:
			v.SetString(f.Name)
		case bool:
			v.SetBool(true)
		case []int:
			v.Set(reflect.ValueOf([]int{i + 1}))
		case []float64:
			v.Set(reflect.ValueOf([]float64{float64(i) + 0.5}))
		case []string:
			v.Set(reflect.ValueOf([]string{f.Name}))
		default:
			t.Fatalf("Spec.%s has a type this test cannot fill: %s", f.Name, f.Type)
		}
	}
	return &s, shared
}

// carries reports each shared field that did not reach opt unchanged.
func carries(t *testing.T, kind string, s *Spec, shared []string, opt any) {
	t.Helper()
	for _, name := range shared {
		got, want := reflect.ValueOf(opt).FieldByName(name).Interface(), reflect.ValueOf(s).Elem().FieldByName(name).Interface()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Spec.%s = %v reached the options as %v", kind, name, want, got)
		}
	}
}

// TestSweepOptionsCarriesEverySpecField holds the one Spec -> options
// conversion to the Spec: every Spec field that has an options field of the
// same name and type, set to a value no other field has, must arrive under
// each of the three sweep kinds' row types. A field added to both structs
// later cannot be dropped on the way (Probe is a bool here and an
// engine.Probe there; run wires it from the env).
func TestSweepOptionsCarriesEverySpecField(t *testing.T) {
	s, shared := fillShared(t, ndmesh.SaturationOptions{})
	if len(shared) < 27 {
		t.Fatalf("only %d Spec fields match an options field by name and type (%v); the test lost its subject", len(shared), shared)
	}
	carries(t, KindOpenLoop, s, shared, sweepOptions[ndmesh.SaturationRow](s))
	carries(t, KindClosedLoop, s, shared, sweepOptions[ndmesh.ClosedLoopRow](s))
	carries(t, KindReliability, s, shared, sweepOptions[ndmesh.ReliabilityRow](s))
}

// TestReplayOptionsCarriesEverySpecField holds the replay kind's options,
// sweepOptions under the comparison's row type, to the same rule, and its
// decoded Trace to Replay, so the comparison's check sees every field a
// replay spec sets and refuses, by name, those a replay does not read.
func TestReplayOptionsCarriesEverySpecField(t *testing.T) {
	s, shared := fillShared(t, ndmesh.ReplayCompareOptions{})
	if len(shared) < 27 {
		t.Fatalf("only %d Spec fields match an options field by name and type (%v); the test lost its subject", len(shared), shared)
	}
	s.trace = &traffic.Trace{Dims: []int{4, 4}}
	opt := sweepOptions[ndmesh.ReplayCompareRow](s)
	carries(t, KindReplay, s, shared, opt)
	if opt.Replay != s.trace {
		t.Errorf("the spec's decoded trace reached the options as %v", opt.Replay)
	}
}
