// This file is the meshd job-spec layer: the JSON shape clients POST to
// /v1/jobs, its strict decoder, the bounds every kind shares, and the
// canonical cache key (see Key). What differs per kind — served defaults,
// the library check a run's rules come from — is the kind's row in kinds.go.

package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

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

// Spec is one job submission: a workload kind plus the option fields of
// the corresponding sweep, under the library's defaults where omitted.
// Field semantics match the ndmesh.LoadSweepOptions fields of the same
// names: every kind, a replay included, is a load sweep.
type Spec struct {
	// Kind selects the workload family: one of the Kind* names.
	Kind string `json:"kind"`
	kind *kind  // Kind's table row, set by normalize
	rows int    // the library check's row count, set by normalize

	// Dims/Lambda shape the mesh (defaults: 8x8, λ=1). Replay jobs take
	// the shape from the trace and must leave Dims empty.
	Dims   []int `json:"dims,omitempty"`
	Lambda int   `json:"lambda,omitempty"`

	// Routers/Patterns span the sweep grid (defaults: limited / uniform).
	// A replay takes Routers alone: one arm, one row, per router.
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

	// Engine-side configuration; see ndmesh.LoadSweepOptions.
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

	// Workers sizes the fan-out. It is NOT part of the cache key: every
	// width produces byte-identical rows (see Key).
	Workers int `json:"workers,omitempty"`

	// Trace is the recorded NDWT workload a replay job reproduces (base64
	// in JSON, per encoding/json []byte convention); decoded, it is the
	// options' Replay. Replay only.
	Trace []byte         `json:"trace,omitempty"`
	trace *traffic.Trace // Trace decoded, set by normalize (replay only)

	// Probe attaches a live census snapshot served at /debug/census.
	// Probes are stateful accumulators, so the library refuses a probed
	// job of more than one cell, and a reliability job; replay jobs run
	// unprobed and refuse it here.
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
	var err error
	if s.kind, err = kindOf(s.Kind); err != nil {
		return err
	}
	if len(s.Routers) > maxList || len(s.Patterns) > maxList || len(s.Rates) > maxList ||
		len(s.Windows) > maxList || len(s.FaultRates) > maxList {
		return fmt.Errorf("a spec list exceeds %d entries", maxList)
	}
	if err := checkPhases(s.Warmup, s.Measure, s.Drain); err != nil {
		return err
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

	if err = s.kind.axes(s); err != nil {
		return err
	}
	s.rows, err = s.kind.check(s)
	return err
}

// checkMesh bounds the mesh a job builds and the λ it steps at: at most
// maxDims dimensions of radix at least 2, at most maxNodes nodes, and λ in
// [1, 64].
func checkMesh(dims []int, lambda int) error {
	if len(dims) > maxDims {
		return fmt.Errorf("mesh has %d dimensions (max %d)", len(dims), maxDims)
	}
	nodes := 1
	for _, d := range dims {
		// The per-radix bound keeps the running product from overflowing
		// before the node cap can catch it.
		if d < 2 || d > maxNodes {
			return fmt.Errorf("mesh dimension %d out of range [2, %d]", d, maxNodes)
		}
		if nodes *= d; nodes > maxNodes {
			return fmt.Errorf("mesh exceeds %d nodes", maxNodes)
		}
	}
	if lambda < 1 || lambda > 64 {
		return fmt.Errorf("lambda %d out of range [1, 64]", lambda)
	}
	return nil
}

// checkPhases bounds the steps a job runs. Each phase is bounded
// individually before summing, so the total cannot overflow into a
// negative that would slip past the cap.
func checkPhases(warmup, measure, drain int) error {
	if warmup < 0 || measure < 0 || drain < 0 {
		return fmt.Errorf("negative phase length")
	}
	if warmup > maxPhase || measure > maxPhase || drain > maxPhase {
		return fmt.Errorf("a phase length exceeds %d steps", maxPhase)
	}
	if total := warmup + measure + drain; total > maxPhase {
		return fmt.Errorf("total phase length %d exceeds %d steps", total, maxPhase)
	}
	return nil
}

// Key returns the spec's canonical cache key. Workers is zeroed first —
// the sweeps produce byte-identical rows at every worker count, so
// submissions that differ only in fan-out width are the same result and hit
// the same cache entry — then the normalized struct is marshaled in
// declaration order and hashed. Reordered JSON keys, whitespace
// and omitted-vs-explicit defaults share a key; any change that can reach
// the rows (workload, engine configuration, seed) splits it.
func (s *Spec) Key() string {
	c := *s
	c.Workers = 0
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
