// Command bench is the repository's standing benchmark: five workloads
// that stress different layers of the stack (the hot engine step, the
// paper's information plane under a fault storm, every router through the
// sweep skeleton, and the meshd daemon's write and read paths), measured
// end to end with tracing off, then once more under the benchmark's own
// spans for a per-layer budget. BENCHMARK.json at the repository root
// declares the workloads, metrics and regression bounds; README.md in this
// directory gives the method and the measured host noise behind them.
//
//	go run ./bench                                  every workload, table + bench/out/results.json
//	go run ./bench -workload fault-storm -seed 7    one workload
//	go run ./bench -compare A.json B.json           A/A or parent/change comparison
//
// Every random choice derives from -seed through internal/rng; the
// programs under test receive only the generated options and specs.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed     uint64
	reps     int
	quick    bool
	untraced bool // measure the end-to-end metrics
	traced   bool // run the traced pass for the per-layer metrics
	outDir   string
	root     string // module root, where cmd/loadgen is built from
}

// instance is a workload after set-up: a body that can be repeated.
type instance interface {
	// rep runs body number i and checks its outputs.
	rep(i int) repOut
	// nominalSteps is the engine steps one body simulates (or, for a cache
	// hit, the steps the served results stand for); opsPerRep its op count.
	nominalSteps() int
	opsPerRep() int
	trace(tp *tracePass) ([]sample, error)
	close()
}

// repOut is what one body reports.
type repOut struct {
	wall      time.Duration
	lat, ttfr []time.Duration // per request: send -> last byte, send -> first row (meshd only)
	digest    [32]byte        // of the body's result rows
	failed    int             // ops that failed a check
	err       error
}

// workloadDef declares one workload.
type workloadDef struct {
	name, why string
	// identicalReps: every rep is the same deterministic body, so every
	// rep's digest must equal the first's.
	identicalReps bool
	setup         func(seed uint64, quick bool) (instance, error)
}

func batchSetup(build func(uint64, bool) *batch) func(uint64, bool) (instance, error) {
	return func(seed uint64, quick bool) (instance, error) {
		b := build(seed, quick)
		return b, b.setup()
	}
}

var workloads = []workloadDef{
	{wStep, "the hot step: engine.Step -> route.AdvanceGated on a saturated fault-free 32x32, information plane quiescent, no sweep, pool or server",
		true, batchSetup(newStepSaturated)},
	{wFault, "the paper's layer: core.Model.Round under bernoulli fail/repair storms dominates; a step-only change predicts at most its routing share here",
		true, batchSetup(newFaultStorm)},
	{wGrid, "every router, finite buffers, closed-loop retry, a 3-D shape and ~200 trial resets through the sweep skeleton; per-cell overhead shows here",
		true, batchSetup(newRouterGrid)},
	{wMiss, "the service write path: decode, key, admission, warm-pool checkout, streamed rows, cache put; engine work dominates the wall",
		false, func(seed uint64, quick bool) (instance, error) { return newMissLoad(seed, quick) }},
	{wHit, "the service read path: decode, key, cache get, registry insert and no engine; a simulator change predicts no change here",
		true, func(seed uint64, quick bool) (instance, error) { return newHitLoad(seed, quick) }},
}

// workloadResult is one workload's measurements.
type workloadResult struct {
	Name       string   `json:"name"`
	RowsSHA256 string   `json:"rows_sha256"`
	Reps       int      `json:"reps"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Correct    bool     `json:"correct"`
	EndToEnd   []sample `json:"end_to_end,omitempty"`
	PerLayer   []sample `json:"per_layer,omitempty"`
}

// results is the document -o writes and -compare reads.
type results struct {
	Seed      uint64           `json:"seed"`
	Quick     bool             `json:"quick"`
	GoVersion string           `json:"go_version"`
	Workloads []workloadResult `json:"workloads"`
}

const setups = 3 // set-up is repeated and its median reported

// runWorkload sets the workload up, runs the untraced reps and then the
// traced pass.
func runWorkload(cfg *config, def workloadDef, tracers map[string]*tracer) (workloadResult, error) {
	res := workloadResult{Name: def.name, Reps: cfg.reps}
	scale := 1
	if cfg.quick {
		scale = 16
	}
	var (
		h      *host
		inst   instance
		setupS []float64
	)
	for s := 0; s < setups; s++ {
		if inst != nil {
			inst.close()
		}
		t0 := now()
		h = newHost(scale)
		h.calibrate(longFactor)
		h.measurePar2()
		var err error
		if inst, err = def.setup(cfg.seed, cfg.quick); err != nil {
			return res, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setupS = append(setupS, seconds(now()-t0))
	}
	defer inst.close()

	var (
		walls, lat, ttfr []time.Duration
		allocs           []float64
		first            [32]byte
		ms               runtime.MemStats
	)
	all := sha256.New()
	ops := inst.opsPerRep()
	for i := 0; i < cfg.reps; i++ {
		runtime.GC() // every rep starts from a collected heap
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		out := inst.rep(i)
		runtime.ReadMemStats(&ms)
		h.beside()
		if out.err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s rep %d: %v\n", def.name, i, out.err)
		}
		if i == 0 {
			first = out.digest
		} else if def.identicalReps && out.digest != first {
			out.failed = ops // the same body gave different rows
		}
		res.Attempted += ops
		res.Failed += min(out.failed, ops)
		walls = append(walls, out.wall)
		lat = append(lat, out.lat...)
		ttfr = append(ttfr, out.ttfr...)
		allocs = append(allocs, float64(ms.Mallocs-before)/float64(ops))
		all.Write(out.digest[:])
	}
	res.RowsSHA256 = hex.EncodeToString(all.Sum(nil))
	res.Correct = res.Failed == 0

	if cfg.untraced {
		// Live heap with the workload's state still referenced and the
		// benchmark's own large buffer gone: the least of a few collections,
		// since what the runtime itself holds between two of them varies by
		// a few KiB.
		h.chase = nil
		live := uint64(math.MaxUint64)
		for i := 0; i < 4; i++ {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			live = min(live, ms.HeapAlloc)
		}
		// Timings are scaled to the reference host by the run's chase cost:
		// a time is multiplied by the discount, a rate divided by it.
		f := h.discount()
		timing := func(metric string, vs []float64, scale float64) sample {
			raw := summarize(vs)
			s := fromSummary(metric, summary{Median: raw.Median * scale, Q1: raw.Q1 * scale, Q3: raw.Q3 * scale, N: raw.N})
			s.Raw = raw.Median
			return s
		}
		perRep := func(unit float64) []float64 {
			out := make([]float64, len(walls))
			for i, w := range walls {
				out[i] = unit / seconds(w)
			}
			return out
		}
		steps, reqs := float64(inst.nominalSteps()), float64(len(lat))/float64(cfg.reps)
		res.EndToEnd = []sample{
			timing("setup_s", setupS, f),
			timing("sim_steps_per_s", perRep(steps), 1/f),
			timing("req_per_s", perRep(reqs), 1/f),
			timing("req_p50_ms", durations(lat, millis), f),
			fromSummary("allocs_per_op", summarize(allocs)),
			{Metric: "live_heap_mb", Value: float64(live) / (1 << 20)},
		}
	}
	if cfg.traced {
		tr := newTracer()
		tracers[def.name] = tr
		layer, err := inst.trace(&tracePass{cfg: cfg, workload: def.name, tr: tr, walls: walls, lat: lat, ttfr: ttfr})
		if err != nil {
			return res, fmt.Errorf("%s: traced pass: %w", def.name, err)
		}
		for _, s := range append(h.metrics(walls), layer...) {
			if defOf(perLayer, s.Metric).appliesTo(def.name) {
				res.PerLayer = append(res.PerLayer, s)
			}
		}
	}
	for i := range res.EndToEnd {
		res.EndToEnd[i].Unit = defOf(endToEnd, res.EndToEnd[i].Metric).unit
	}
	for i := range res.PerLayer {
		res.PerLayer[i].Unit = defOf(perLayer, res.PerLayer[i].Metric).unit
	}
	return res, nil
}

// contractLine renders the one-object summary the benchmark contract's
// driver reads: every declared metric of the measured kinds, a per-layer
// metric the workload does not exercise reading 0.
func contractLine(res workloadResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	fill := func(defs []metricDef, got []sample) {
		if len(got) == 0 {
			return
		}
		for _, d := range defs {
			metrics[d.name] = value{0, d.unit}
		}
		for _, s := range got {
			metrics[s.Metric] = value{s.Value, s.Unit}
		}
	}
	fill(endToEnd, res.EndToEnd)
	fill(perLayer, res.PerLayer)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(fmt.Sprintf("bench: encoding the result line: %v", err)) // finite numbers only, checked by run
	}
	return string(line)
}

// printTable writes `workload metric value unit` lines.
func printTable(w io.Writer, res workloadResult) {
	for _, set := range [][]sample{res.EndToEnd, res.PerLayer} {
		for _, s := range set {
			fmt.Fprintf(w, "%-15s %-28s %14.6g %-6s", res.Name, s.Metric, s.Value, s.Unit)
			if s.N > 1 && s.Q3 != 0 {
				fmt.Fprintf(w, "  q1 %.6g q3 %.6g n %d", s.Q1, s.Q3, s.N)
			}
			if s.Raw != 0 {
				fmt.Fprintf(w, "  raw %.6g", s.Raw)
			}
			fmt.Fprintln(w)
		}
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%-15s %-28s %14.6g %-6s\n", res.Name, "failed_share", share, "share")
	fmt.Fprintf(w, "%-15s %-28s %s\n", res.Name, "rows_sha256", res.RowsSHA256)
}

// run executes the selected workloads and writes the outputs.
func run(cfg *config, only, outPath string, stdout io.Writer) (*results, error) {
	doc := &results{Seed: cfg.seed, Quick: cfg.quick, GoVersion: runtime.Version()}
	tracers := map[string]*tracer{}
	found := false
	for _, def := range workloads {
		if only != "" && def.name != only {
			continue
		}
		found = true
		res, err := runWorkload(cfg, def, tracers)
		if err != nil {
			return nil, err
		}
		for _, set := range [][]sample{res.EndToEnd, res.PerLayer} {
			for _, s := range set {
				if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
					return nil, fmt.Errorf("%s: metric %s is not finite", def.name, s.Metric)
				}
			}
		}
		doc.Workloads = append(doc.Workloads, res)
		printTable(stdout, res)
	}
	if !found {
		return nil, fmt.Errorf("unknown workload %q", only)
	}
	// The artefacts are conveniences; a read-only checkout must not fail
	// the measurement.
	if outPath != "" {
		if err := writeJSON(outPath, doc); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", outPath, err)
		}
	}
	if cfg.traced {
		if err := writeSpans(filepath.Join(cfg.outDir, "spans.json"), tracers); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing spans: %v\n", err)
		}
	}
	for _, res := range doc.Workloads {
		fmt.Fprintln(stdout, contractLine(res))
	}
	return doc, nil
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

// traceFlag is -trace: unset runs both passes; 0/false only the untraced
// reps; 1/true a few untraced reps and the traced pass. It is not a
// boolean flag so that `--trace 0` parses as the contract's driver writes it.
type traceFlag struct{ set, on bool }

func (f *traceFlag) String() string { return strconv.FormatBool(f.on) }

func (f *traceFlag) Set(s string) error {
	on, err := strconv.ParseBool(s)
	f.set, f.on = true, on
	return err
}

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		reps     = flag.Int("reps", 0, "timed bodies per workload (0: 3 per two -seconds, never fewer than 9)")
		secs     = flag.Int("seconds", 10, "target length of a workload's measured phase on the reference host")
		workload = flag.String("workload", "", "run only this workload")
		quick    = flag.Bool("quick", false, "smoke mode: 2 reps of bodies cut to an eighth")
		out      = flag.String("o", "bench/out/results.json", "results file")
		compare  = flag.Bool("compare", false, "compare two results files (or comma-separated sets): bench -compare A.json B.json")
		trace    traceFlag
	)
	flag.Var(&trace, "trace", "0: end-to-end metrics only; 1: per-layer metrics only; unset: both")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json[,A2.json...] B.json[,B2.json...]")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	cfg := &config{seed: *seed, quick: *quick, root: root, outDir: filepath.Dir(*out),
		untraced: !trace.set || !trace.on, traced: !trace.set || trace.on}
	switch {
	case *quick:
		cfg.reps = 2
	case *reps > 0:
		cfg.reps = max(*reps, 9)
	default:
		cfg.reps = max(*secs*3/2, 9)
	}
	if !cfg.untraced && !*quick && *reps == 0 {
		cfg.reps = 5 // the traced pass needs only a baseline wall
	}
	if _, err := run(cfg, *workload, *out, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
