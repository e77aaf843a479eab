package ndmesh

// This file is E22, the gridlock phase diagram: the closed-loop methodology
// of E21 pushed deliberately into its collapse regime — finite router
// buffers with windows past the buffer budget — and run as a controlled
// comparison of deadlock-escape mechanisms. For every (pattern, window,
// capacity, fault count) cell the four mechanism arms {none, retry, bubble,
// retry+bubble} replay the *identical* scenario (same fault overlay, same
// initial injection draws, byte-for-byte from value copies of the cell's
// rng-stream state), so any difference in delivered throughput, retries or
// time-to-recovery is attributable to the escape mechanism alone:
//
//   - none:         gridlock detection only (GridlockWindow). A deadlocked
//                   cell is detected, cut short and reported Gridlocked —
//                   the baseline that shows where the phase boundary lies.
//   - retry:        flight timeouts kill stalled flights back to their
//                   source, which re-offers them under exponential backoff
//                   (FlightTimeout + RetryBackoff).
//   - bubble:       bubble admission keeps >= 1 input-buffer slot free at
//                   injection, denying the buffer-cycle deadlock its last
//                   slot by construction.
//   - retry+bubble: both.
//
// The detection window is kept below the flight timeout so a cell that
// gridlocks under the retry arms still *detects* before the first kill
// frees it — that is what makes RecoverySteps (detection to first
// subsequent progress) a measurable time-to-recovery instead of zero.
//
// Determinism follows the repository contract: one rng stream is split per
// scenario cell in row order, each mechanism arm starts from a value copy
// of that stream's state, each job writes only its own result slots, and
// aggregation is serial — byte-identical for every worker count.

import (
	"fmt"
	"slices"

	"ndmesh/internal/rng"
)

// GridlockMechanisms is the canonical escape-mechanism axis of the E22
// grid, in reporting order.
var GridlockMechanisms = []string{"none", "retry", "bubble", "retry+bubble"}

// GridlockOptions configures the E22 phase diagram: the cross product of
// Patterns x Windows x Capacities x FaultCounts, each cell run once per
// escape mechanism (Mechanisms) on an identical scenario, every arm driven
// by the one router in Routers (the phase diagram is about escape
// mechanisms, not router choice). Empty Routers, Mechanisms and FaultCounts
// default to "limited" (the backtracking router, with no deadlock avoidance
// of its own), all four mechanisms and a fault-free column. The retry arms
// take FlightTimeout/RetryBackoff, every arm GridlockWindow; detection must
// stay below the timeout or time-to-recovery collapses to zero. It rejects
// the scalars its axes stand in for (NodeCapacity, Faults, Bubble), the
// open-loop and reliability fields (Rates, FaultRates, Trials, Rate,
// Process), a FaultRate and a Probe.
type GridlockOptions = LoadSweepOptions[GridlockRow]

// DefaultGridlock returns the standard E22 configuration: an 8x8 mesh,
// uniform + transpose closed loops, windows straddling the buffer budget of
// capacities 2 and 4, a fault-free and a faulty column, and all four
// mechanism arms. Detection (8 dead steps) sits below the flight timeout
// (16 stalled steps) so detection precedes rescue. The window axis brackets
// the phase boundary: at window 1 most cells run free, by window 4 every
// finite-buffer cell is deep in the collapse regime where only the retry
// arms recover (bubble admission wins in the band in between, where
// gridlock develops from injection overpressure rather than the initial
// burst).
func DefaultGridlock() GridlockOptions {
	return GridlockOptions{
		Dims:           []int{8, 8},
		Lambda:         1,
		Routers:        []string{"limited"},
		Patterns:       []string{"uniform", "transpose"},
		Windows:        []int{1, 2, 4},
		Capacities:     []int{2, 4},
		FaultCounts:    []int{0, 4},
		FaultInterval:  24,
		Mechanisms:     GridlockMechanisms,
		Warmup:         32,
		Measure:        192,
		Drain:          192,
		LinkRate:       1,
		FlightTimeout:  16,
		RetryBackoff:   4,
		GridlockWindow: 8,
	}
}

// GridlockRow is one (pattern, window, capacity, faults, mechanism) arm of
// the E22 grid.
type GridlockRow struct {
	Dims    string
	Pattern string
	Router  string
	// Window, Capacity and Faults locate the scenario cell; Mechanism names
	// the escape arm.
	Window, Capacity, Faults int
	Mechanism                string
	// Gridlocked marks terminal gridlock: the detector was still latched
	// when the run ended (the run is cut short, not spun to its budget).
	// GridlockStep is the 1-based step the detector first fired (0 =
	// never); RecoverySteps the steps from first detection to the first
	// subsequent progress (0 = never fired or never recovered).
	Gridlocked                  bool
	GridlockStep, RecoverySteps int
	// AcceptedRate is delivered messages per node-step over the measurement
	// window; the remaining counters classify the measured flights. Retried
	// counts timeout kills that re-armed a source slot.
	AcceptedRate                  float64
	Delivered, TimedOut, Retried  int
	Unreachable, Lost, Unfinished int
	LatMean                       float64
	LatP50, LatP99                int
}

// gridlockMechanism resolves a mechanism name to its (timeout, bubble)
// switches.
func gridlockMechanism(name string) (timeout, bubble bool, err error) {
	switch name {
	case "none":
		return false, false, nil
	case "retry":
		return true, false, nil
	case "bubble":
		return false, true, nil
	case "retry+bubble":
		return true, true, nil
	}
	return false, false, fmt.Errorf("ndmesh: unknown escape mechanism %q (want none|retry|bubble|retry+bubble)", name)
}

// GridlockSweepWorkers runs the E22 phase diagram (each scenario cell — all
// its mechanism arms — is one parallel job; workers < 1 means GOMAXPROCS).
func GridlockSweepWorkers(opt GridlockOptions, seed uint64, workers int) ([]GridlockRow, error) {
	base, _, err := opt.checkGridlock()
	if err != nil {
		return nil, err
	}
	dims, _ := opt.describe()
	// One job per scenario cell (pattern-major, then window, capacity,
	// faults); the mechanism arms run inside the job from value copies of
	// the cell's stream state, so all arms face the identical scenario.
	nw, nc, nf, nm := len(opt.Windows), len(opt.Capacities), len(opt.FaultCounts), len(opt.Mechanisms)
	jobs := len(opt.Patterns) * nw * nc * nf
	// A job's arms stream at their row indexes, j*nm+mi.
	var emitArms func(out [][]GridlockRow, j int)
	if emit := opt.Emit; emit != nil {
		emitArms = func(out [][]GridlockRow, j int) {
			for mi, row := range out[j] {
				emit(j*nm+mi, row)
			}
		}
	}
	patterns, windows, capacities, faultCounts, mechanisms := opt.Patterns, opt.Windows, opt.Capacities, opt.FaultCounts, opt.Mechanisms
	cells, err := runGrid(fanOut{workers: workers, pool: opt.Pool, cancel: opt.Cancel, progress: opt.Progress}, seed, jobs,
		func(p *EnginePool, j int, r *rng.Source) ([]GridlockRow, error) {
			c := base
			c.Pattern = patterns[j/(nw*nc*nf)]
			c.Window = windows[j/(nc*nf)%nw]
			c.NodeCapacity = capacities[j/nf%nc]
			c.Faults = faultCounts[j%nf]
			arms := make([]GridlockRow, nm)
			for mi, mech := range mechanisms {
				timeout, bubble, err := gridlockMechanism(mech)
				if err != nil {
					return nil, err
				}
				arm := c
				arm.Bubble = bubble
				if !timeout {
					arm.FlightTimeout, arm.RetryBackoff = 0, 0
				}
				// loadPoint leaves r as it was: every arm replays one scenario.
				pt, err := loadPoint(p, &arm, r)
				if err != nil {
					return nil, err
				}
				arms[mi] = GridlockRow{
					Dims:          dims,
					Pattern:       arm.Pattern,
					Router:        arm.Router,
					Window:        arm.Window,
					Capacity:      arm.NodeCapacity,
					Faults:        arm.Faults,
					Mechanism:     mech,
					Gridlocked:    pt.Gridlocked,
					GridlockStep:  pt.GridlockStep,
					RecoverySteps: pt.RecoverySteps,
					AcceptedRate:  pt.AcceptedRate,
					Delivered:     pt.Delivered,
					TimedOut:      pt.TimedOut,
					Retried:       pt.Retried,
					Unreachable:   pt.Unreachable,
					Lost:          pt.Lost,
					Unfinished:    pt.Unfinished,
					LatMean:       pt.Latency.Mean,
					LatP50:        pt.Latency.P50,
					LatP99:        pt.Latency.P99,
				}
			}
			return arms, nil
		}, emitArms)
	if err != nil {
		return nil, err
	}
	rows := make([]GridlockRow, 0, jobs*nm)
	for _, arms := range cells {
		rows = append(rows, arms...)
	}
	return rows, nil
}

// gridlockRouters and faultFree are the gridlock sweep's Routers and
// FaultCounts defaults, shared read-only by every options value they fill.
var (
	gridlockRouters = []string{"limited"}
	faultFree       = []int{0}
)

// checkGridlock is GridlockSweepWorkers' Check. It folds the empty Routers,
// Mechanisms and FaultCounts defaults into opt, and returns the base cell
// every job copies, validated and defaulted, with the one router set, and
// the row count, one per mechanism arm of each scenario cell.
func (opt *LoadSweepOptions[Row]) checkGridlock() (base LoadOptions, rows int, err error) {
	if len(opt.Routers) == 0 {
		opt.Routers = gridlockRouters
	}
	if len(opt.Routers) != 1 {
		return base, 0, fmt.Errorf("ndmesh: a gridlock sweep drives every arm with one router, got Routers %v", opt.Routers)
	}
	if len(opt.Mechanisms) == 0 {
		opt.Mechanisms = GridlockMechanisms
	}
	if len(opt.FaultCounts) == 0 {
		opt.FaultCounts = faultFree
	}
	cells, err := opt.sweepGrid("gridlock", "window x capacity", len(opt.Windows)*len(opt.Capacities)*len(opt.FaultCounts),
		"Rates", "FaultRates", "Trials", "Rate", "Process", "NodeCapacity", "Faults", "Bubble", "FaultRate", "Probe")
	if err != nil {
		return base, 0, err
	}
	for _, m := range opt.Mechanisms {
		if _, _, err := gridlockMechanism(m); err != nil {
			return base, 0, err
		}
	}
	if err := validateWindows(opt.Windows...); err != nil {
		return base, 0, err
	}
	for _, c := range opt.Capacities {
		if c < 2 {
			return base, 0, fmt.Errorf("ndmesh: gridlock sweep capacity %d must be >= 2 (bubble admission keeps one slot free)", c)
		}
	}
	if opt.FlightTimeout < 1 {
		return base, 0, fmt.Errorf("ndmesh: gridlock sweep needs FlightTimeout >= 1 (the retry arms have nothing to do without it)")
	}
	if opt.GridlockWindow < 1 {
		return base, 0, fmt.Errorf("ndmesh: gridlock sweep needs GridlockWindow >= 1 (without detection, a gridlocked 'none' arm spins to its budget)")
	}
	if err := checkFaultCount("FaultCounts", opt.Dims, slices.Max(opt.FaultCounts)); err != nil {
		return base, 0, err
	}
	base = opt.Cell()
	base.Router = opt.Routers[0]
	err = base.validateLoadShape()
	return base, cells * len(opt.Mechanisms), err
}
