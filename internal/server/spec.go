// This file is the meshd job-spec layer: the JSON shape clients POST to
// /v1/jobs, its strict decoder, the normalization pass that folds in the
// served defaults (the library's Default* configurations, narrowed where
// normalize says so), and the canonical cache key. The key contract is the determinism dividend: the
// sweeps produce byte-identical rows at every worker count and every
// shard count, so Workers and Shards are zeroed out of the key — two
// submissions that differ only in fan-out width are the same result and
// hit the same cache entry. Everything else that can reach the rows
// (workload, engine configuration, seed) is in the key; canonicalization
// goes through the Spec struct itself (decode, default, re-marshal), so
// JSON key order, whitespace and omitted-vs-defaulted fields cannot split
// equivalent specs across entries.

package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"ndmesh"
	"ndmesh/internal/traffic"
)

// Spec bounds: a daemon accepts arbitrary network input, so every
// dimension of a job is capped before it can size an allocation. The
// caps are generous for the paper's experiments (65k-node meshes,
// million-step runs) and small enough that a hostile spec cannot wedge
// the host.
const (
	maxDims      = 8
	maxNodes     = 1 << 16
	maxList      = 64
	maxPhase     = 1 << 20
	maxTrials    = 4096
	maxTraceSize = 16 << 20
)

// Job kinds, one per workload family the library runs.
const (
	KindOpenLoop    = "open-loop"
	KindClosedLoop  = "closed-loop"
	KindReplay      = "replay"
	KindReliability = "reliability"
)

// Spec is one job submission: a workload kind plus the option fields of
// the corresponding sweep, under the library's defaults where omitted.
// Field semantics match the ndmesh option structs of the same names.
type Spec struct {
	// Kind selects the workload family: open-loop | closed-loop | replay
	// | reliability.
	Kind string `json:"kind"`

	// Dims/Lambda shape the mesh (defaults: 8x8, λ=1). Replay jobs take
	// the shape from the trace and must leave Dims empty.
	Dims   []int `json:"dims,omitempty"`
	Lambda int   `json:"lambda,omitempty"`

	// Routers/Patterns span the sweep grid (defaults: limited / uniform).
	Routers  []string `json:"routers,omitempty"`
	Patterns []string `json:"patterns,omitempty"`

	// Rates is the open-loop rate axis; Windows the closed-loop window
	// axis; FaultRates the reliability fault-rate axis. Each applies only
	// to its kind.
	Rates      []float64 `json:"rates,omitempty"`
	Windows    []int     `json:"windows,omitempty"`
	FaultRates []float64 `json:"fault_rates,omitempty"`

	// Process is the open-loop arrival process; Rate the per-trial rate
	// of a reliability run; Trials its Monte-Carlo sample size.
	Process string  `json:"process,omitempty"`
	Rate    float64 `json:"rate,omitempty"`
	Trials  int     `json:"trials,omitempty"`

	// Warmup/Measure/Drain are the phase lengths in steps.
	Warmup  int `json:"warmup,omitempty"`
	Measure int `json:"measure,omitempty"`
	Drain   int `json:"drain,omitempty"`

	// Engine-side configuration; see ndmesh.SaturationOptions.
	LinkRate       int     `json:"link_rate,omitempty"`
	NodeCapacity   int     `json:"node_capacity,omitempty"`
	FlightTimeout  int     `json:"flight_timeout,omitempty"`
	RetryBackoff   int     `json:"retry_backoff,omitempty"`
	Bubble         bool    `json:"bubble,omitempty"`
	GridlockWindow int     `json:"gridlock_window,omitempty"`
	Faults         int     `json:"faults,omitempty"`
	FaultInterval  int     `json:"fault_interval,omitempty"`
	Clustered      bool    `json:"clustered,omitempty"`
	FaultStart     int     `json:"fault_start,omitempty"`
	FaultRate      float64 `json:"fault_rate,omitempty"`
	FaultModel     string  `json:"fault_model,omitempty"`
	FaultShape     float64 `json:"fault_shape,omitempty"`
	FaultRepair    float64 `json:"fault_repair,omitempty"`

	// Seed is the run's rng seed (part of the cache key: a different
	// seed is a different result).
	Seed uint64 `json:"seed,omitempty"`

	// Workers/Shards size the fan-out. They are explicitly NOT part of
	// the cache key: every width produces byte-identical rows, so the
	// daemon is free to serve a 1-worker submission from an 8-worker
	// run's cache entry (and does).
	Workers int `json:"workers,omitempty"`
	Shards  int `json:"shards,omitempty"`

	// Trace is the recorded NDWT workload a replay job reproduces
	// (base64 in JSON, per encoding/json []byte convention). Replay only.
	Trace []byte `json:"trace,omitempty"`

	// Probe attaches a live census snapshot served at /debug/census.
	// Probes are stateful accumulators, so a probed job must be a single
	// cell, and reliability jobs (whose sweep has no probe seam) reject
	// it.
	Probe bool `json:"probe,omitempty"`
}

// ParseSpec strictly decodes and canonicalizes a job spec: unknown
// fields, trailing garbage, non-finite numbers and out-of-bounds sizes
// are errors, and the returned spec has all defaults folded in, so two
// equivalent submissions parse to identical structs.
func ParseSpec(data []byte) (*Spec, error) {
	if len(data) > maxTraceSize+4096 {
		return nil, fmt.Errorf("spec body exceeds %d bytes", maxTraceSize+4096)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("decoding spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after spec object")
	}
	if err := s.normalize(); err != nil {
		return nil, err
	}
	return &s, nil
}

// normalize validates bounds and folds in defaults, making the spec
// canonical: after it returns, equivalent submissions are equal structs.
func (s *Spec) normalize() error {
	switch s.Kind {
	case KindOpenLoop, KindClosedLoop, KindReplay, KindReliability:
	case "":
		return fmt.Errorf("spec needs a kind (open-loop | closed-loop | replay | reliability)")
	default:
		return fmt.Errorf("unknown kind %q (want open-loop | closed-loop | replay | reliability)", s.Kind)
	}
	for _, f := range []float64{s.Rate, s.FaultRate, s.FaultShape, s.FaultRepair} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("non-finite numeric field in spec")
		}
	}
	for _, f := range append(append([]float64{}, s.Rates...), s.FaultRates...) {
		if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			return fmt.Errorf("rate %v out of range", f)
		}
	}
	if len(s.Routers) > maxList || len(s.Patterns) > maxList || len(s.Rates) > maxList ||
		len(s.Windows) > maxList || len(s.FaultRates) > maxList {
		return fmt.Errorf("a spec list exceeds %d entries", maxList)
	}
	// Each phase is bounded individually before summing, so the total
	// cannot overflow into a negative that would slip past the cap.
	if s.Warmup < 0 || s.Measure < 0 || s.Drain < 0 {
		return fmt.Errorf("negative phase length")
	}
	if s.Warmup > maxPhase || s.Measure > maxPhase || s.Drain > maxPhase {
		return fmt.Errorf("a phase length exceeds %d steps", maxPhase)
	}
	if total := s.Warmup + s.Measure + s.Drain; total > maxPhase {
		return fmt.Errorf("total phase length %d exceeds %d steps", total, maxPhase)
	}
	if s.Trials < 0 || s.Trials > maxTrials {
		return fmt.Errorf("trials %d out of range [0, %d]", s.Trials, maxTrials)
	}
	// The remaining engine-side ints all size allocations or schedules
	// somewhere downstream; cap them wholesale.
	for _, v := range []int{s.LinkRate, s.NodeCapacity, s.FlightTimeout, s.RetryBackoff,
		s.GridlockWindow, s.Faults, s.FaultInterval, s.FaultStart} {
		if v < 0 || v > maxPhase {
			return fmt.Errorf("integer field %d out of range [0, %d]", v, maxPhase)
		}
	}
	if len(s.Trace) > maxTraceSize {
		return fmt.Errorf("trace exceeds %d bytes", maxTraceSize)
	}
	if s.Workers < 0 || s.Workers > maxList {
		return fmt.Errorf("workers %d out of range [0, %d]", s.Workers, maxList)
	}
	if s.Shards < 0 || s.Shards > maxList {
		return fmt.Errorf("shards %d out of range [0, %d]", s.Shards, maxList)
	}

	// Replay: the trace is the workload — the mesh shape, the phases and
	// the grid axes come from it, and spec fields that would fight it are
	// rejected rather than silently ignored.
	if s.Kind == KindReplay {
		if len(s.Trace) == 0 {
			return fmt.Errorf("replay spec needs a trace")
		}
		if len(s.Dims) > 0 || len(s.Rates) > 0 || len(s.Windows) > 0 || len(s.FaultRates) > 0 ||
			len(s.Patterns) > 0 || s.Warmup != 0 || s.Measure != 0 || s.Drain != 0 ||
			s.Rate != 0 || s.Trials != 0 || s.Process != "" ||
			s.Faults != 0 || s.FaultRate != 0 {
			return fmt.Errorf("replay specs take dims, phases, workload axes and the fault schedule from the trace; remove them")
		}
		if _, err := traffic.UnmarshalTrace(s.Trace); err != nil {
			return fmt.Errorf("decoding trace: %w", err)
		}
		if len(s.Routers) == 0 {
			s.Routers = []string{"limited"}
		}
		if len(s.Routers) != 1 {
			return fmt.Errorf("replay runs one router (got %d)", len(s.Routers))
		}
		if s.Probe {
			return fmt.Errorf("probe is not supported on replay jobs")
		}
		return nil
	}
	if len(s.Trace) > 0 {
		return fmt.Errorf("only replay specs carry a trace")
	}

	// Shared defaults: the library's Default{Saturation,ClosedLoop,
	// Reliability} values, except that patterns is uniform alone (the
	// library's open- and closed-loop defaults add transpose) and a
	// reliability job leaves fault_repair, flight_timeout and retry_backoff
	// off. Defaults are cache-key material: TestSpecDefaultsVsLibrary pins
	// both lists.
	if len(s.Dims) == 0 {
		s.Dims = []int{8, 8}
	}
	if len(s.Dims) > maxDims {
		return fmt.Errorf("mesh has %d dimensions (max %d)", len(s.Dims), maxDims)
	}
	nodes := 1
	for _, d := range s.Dims {
		// The per-radix bound keeps the running product from overflowing
		// before the node cap can catch it.
		if d < 2 || d > maxNodes {
			return fmt.Errorf("mesh dimension %d out of range [2, %d]", d, maxNodes)
		}
		if nodes *= d; nodes > maxNodes {
			return fmt.Errorf("mesh exceeds %d nodes", maxNodes)
		}
	}
	if s.Lambda == 0 {
		s.Lambda = 1
	}
	if s.Lambda < 1 || s.Lambda > 64 {
		return fmt.Errorf("lambda %d out of range [1, 64]", s.Lambda)
	}
	if len(s.Routers) == 0 {
		s.Routers = []string{"limited"}
	}
	if len(s.Patterns) == 0 {
		s.Patterns = []string{"uniform"}
	}
	if s.Measure == 0 {
		s.Warmup, s.Measure, s.Drain = 64, 256, 256
	}
	if s.LinkRate == 0 {
		s.LinkRate = 1
	}

	switch s.Kind {
	case KindOpenLoop:
		if len(s.Windows) > 0 || len(s.FaultRates) > 0 || s.Trials != 0 {
			return fmt.Errorf("open-loop specs take rates, not windows/fault_rates/trials")
		}
		if len(s.Rates) == 0 {
			s.Rates = []float64{0.02, 0.05, 0.1, 0.2, 0.35, 0.5}
		}
		if s.Process == "" {
			s.Process = "bernoulli"
		}
	case KindClosedLoop:
		if len(s.Rates) > 0 || len(s.FaultRates) > 0 || s.Trials != 0 || s.Process != "" {
			return fmt.Errorf("closed-loop specs take windows, not rates/fault_rates/trials/process")
		}
		if len(s.Windows) == 0 {
			s.Windows = []int{1, 2, 4, 8, 16, 32}
		}
		for _, w := range s.Windows {
			if w < 1 || w > 1<<16 {
				return fmt.Errorf("window %d out of range [1, %d]", w, 1<<16)
			}
		}
	case KindReliability:
		if len(s.Rates) > 0 || len(s.Windows) > 0 {
			return fmt.Errorf("reliability specs take fault_rates, not rates/windows")
		}
		if s.Probe {
			return fmt.Errorf("probe is not supported on reliability jobs")
		}
		if len(s.FaultRates) == 0 {
			s.FaultRates = []float64{0, 0.005, 0.01, 0.02, 0.04}
		}
		if s.Trials == 0 {
			s.Trials = 16
		}
		if s.Rate == 0 {
			s.Rate = 0.1
		}
		if s.Process == "" {
			s.Process = "bernoulli"
		}
		if s.FaultModel == "" {
			s.FaultModel = "bernoulli"
		}
	}
	if s.Probe && s.cells() != 1 {
		return fmt.Errorf("a probed job must be a single cell (got %d); probes are stateful accumulators", s.cells())
	}
	return nil
}

// cells returns the job's grid size: one per sweep cell (reliability
// counts cells, not trials), one for a replay.
func (s *Spec) cells() int {
	switch s.Kind {
	case KindOpenLoop:
		return len(s.Patterns) * len(s.Rates) * len(s.Routers)
	case KindClosedLoop:
		return len(s.Patterns) * len(s.Windows) * len(s.Routers)
	case KindReliability:
		return len(s.Patterns) * len(s.FaultRates) * len(s.Routers)
	default:
		return 1
	}
}

// Key returns the spec's canonical cache key. Workers and Shards are
// zeroed first — the determinism contract makes every fan-out width the
// same bytes — then the normalized struct is marshaled in declaration
// order and hashed. Two submissions with reordered JSON keys, different
// whitespace, or omitted-vs-explicit defaults share a key; any change
// that can reach the rows (including the seed) splits it.
func (s *Spec) Key() string {
	c := *s
	c.Workers = 0
	c.Shards = 0
	data, err := json.Marshal(&c)
	if err != nil {
		// A normalized spec is always marshalable (non-finite floats were
		// rejected); this is unreachable but must not fail open into key
		// collisions.
		panic(fmt.Sprintf("server: marshaling canonical spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// saturationOptions converts an open-loop spec into the library's sweep
// options (hooks left nil; the runner wires Pool/Emit/Cancel/Probe).
func (s *Spec) saturationOptions() ndmesh.SaturationOptions {
	return ndmesh.SaturationOptions{
		Dims: s.Dims, Lambda: s.Lambda,
		Routers: s.Routers, Patterns: s.Patterns, Rates: s.Rates,
		Process: s.Process,
		Warmup:  s.Warmup, Measure: s.Measure, Drain: s.Drain,
		LinkRate: s.LinkRate, NodeCapacity: s.NodeCapacity,
		FlightTimeout: s.FlightTimeout, RetryBackoff: s.RetryBackoff,
		Bubble: s.Bubble, GridlockWindow: s.GridlockWindow,
		Faults: s.Faults, FaultInterval: s.FaultInterval,
		Clustered: s.Clustered, FaultStart: s.FaultStart,
		FaultRate: s.FaultRate, FaultModel: s.FaultModel,
		FaultShape: s.FaultShape, FaultRepair: s.FaultRepair,
		Shards: s.Shards,
	}
}

// closedLoopOptions converts a closed-loop spec into sweep options.
func (s *Spec) closedLoopOptions() ndmesh.ClosedLoopOptions {
	return ndmesh.ClosedLoopOptions{
		Dims: s.Dims, Lambda: s.Lambda,
		Routers: s.Routers, Patterns: s.Patterns, Windows: s.Windows,
		Warmup: s.Warmup, Measure: s.Measure, Drain: s.Drain,
		LinkRate: s.LinkRate, NodeCapacity: s.NodeCapacity,
		FlightTimeout: s.FlightTimeout, RetryBackoff: s.RetryBackoff,
		Bubble: s.Bubble, GridlockWindow: s.GridlockWindow,
		Faults: s.Faults, FaultInterval: s.FaultInterval,
		Clustered: s.Clustered, FaultStart: s.FaultStart,
		FaultRate: s.FaultRate, FaultModel: s.FaultModel,
		FaultShape: s.FaultShape, FaultRepair: s.FaultRepair,
		Shards: s.Shards,
	}
}

// reliabilityOptions converts a reliability spec into sweep options.
func (s *Spec) reliabilityOptions() ndmesh.ReliabilityOptions {
	return ndmesh.ReliabilityOptions{
		Dims: s.Dims, Lambda: s.Lambda,
		Routers: s.Routers, Patterns: s.Patterns, FaultRates: s.FaultRates,
		FaultModel: s.FaultModel, FaultShape: s.FaultShape,
		FaultRepair: s.FaultRepair, Clustered: s.Clustered,
		Trials: s.Trials, Rate: s.Rate, Process: s.Process,
		Warmup: s.Warmup, Measure: s.Measure, Drain: s.Drain,
		LinkRate: s.LinkRate, NodeCapacity: s.NodeCapacity,
		FlightTimeout: s.FlightTimeout, RetryBackoff: s.RetryBackoff,
		Bubble: s.Bubble, GridlockWindow: s.GridlockWindow,
		Shards: s.Shards,
	}
}

// loadOptions converts a replay spec into the single-run options. The
// trace was validated at parse time; engine-side fields follow the
// library's replay-inheritance rules.
func (s *Spec) loadOptions(tr *traffic.Trace) ndmesh.LoadOptions {
	return ndmesh.LoadOptions{
		Router:   s.Routers[0],
		Lambda:   s.Lambda,
		LinkRate: s.LinkRate, NodeCapacity: s.NodeCapacity,
		FlightTimeout: s.FlightTimeout, RetryBackoff: s.RetryBackoff,
		Bubble: s.Bubble, GridlockWindow: s.GridlockWindow,
		Shards: s.Shards,
		Seed:   s.Seed,
		Replay: tr,
	}
}
