package traffic

import (
	"math"
	"testing"

	"ndmesh/internal/rng"
)

// empiricalRate runs a process over numNodes sources for steps steps and
// returns the realized arrivals per node-step.
func empiricalRate(p Process, numNodes, steps int, rate float64, r *rng.Source) float64 {
	p.Reset(numNodes)
	total := 0
	for s := 0; s < steps; s++ {
		for node := 0; node < numNodes; node++ {
			total += p.Arrivals(node, rate, r)
		}
	}
	return float64(total) / float64(numNodes*steps)
}

// TestProcessEmpiricalRate is the statistical contract of the arrival
// processes: over a long run the realized rate matches the configured rate
// within a tolerance set by the binomial standard error. The runs are
// deterministic (fixed seed), so the assertions cannot flake; the
// tolerances (5 standard errors of a Bernoulli sample of the same size)
// would only trip on a genuine generator or process regression.
func TestProcessEmpiricalRate(t *testing.T) {
	const (
		numNodes = 64
		steps    = 20000
	)
	samples := float64(numNodes * steps)
	for _, tc := range []struct {
		process string
		rates   []float64
	}{
		{"bernoulli", []float64{0.05, 0.3, 0.7, 0.95}},
		// Poisson arrivals batch, so rates beyond 1 must realize too.
		{"poisson", []float64{0.1, 0.5, 1.0, 2.5}},
		// The default bursty process (mean on 8, off 24) has duty 0.25;
		// rates must realize faithfully anywhere below that cap.
		{"bursty", []float64{0.02, 0.1, 0.2}},
	} {
		for _, rate := range tc.rates {
			p, err := ProcessByName(tc.process)
			if err != nil {
				t.Fatal(err)
			}
			got := empiricalRate(p, numNodes, steps, rate, rng.New(99))
			// Bernoulli-sample standard error; Poisson's per-step variance
			// equals the rate, bursty's exceeds Bernoulli's through the
			// on/off modulation, so give those the matching sigma.
			sigma := math.Sqrt(rate * (1 - rate) / samples)
			switch tc.process {
			case "poisson":
				sigma = math.Sqrt(rate / samples)
			case "bursty":
				// On/off bursts correlate consecutive steps: arrivals come
				// from ~numNodes*steps*duty ON-steps at rate/duty, and the
				// burst length (mean 8) correlates them further. Scale the
				// Bernoulli sigma accordingly.
				duty := 0.25
				onRate := rate / duty
				sigma = math.Sqrt(onRate*(1-onRate)/(samples*duty)) * math.Sqrt(8)
			}
			tol := 5 * sigma
			if math.Abs(got-rate) > tol {
				t.Errorf("%s rate %v: realized %v (|diff| %v > tol %v)",
					tc.process, rate, got, math.Abs(got-rate), tol)
			}
		}
	}
}

// TestMaxRateMatchesProcess: MaxRate answers what the process ProcessByName
// builds answers, and refuses what ProcessByName refuses, with its error.
func TestMaxRateMatchesProcess(t *testing.T) {
	for _, name := range append(ProcessNames(), "", "zipf") {
		p, err := ProcessByName(name)
		got, merr := MaxRate(name)
		switch {
		case err != nil:
			if merr == nil || merr.Error() != err.Error() {
				t.Errorf("%q: MaxRate error %v, ProcessByName's %v", name, merr, err)
			}
		case merr != nil || got != p.MaxRate():
			t.Errorf("%q: MaxRate = %v, %v; the built process says %v", name, got, merr, p.MaxRate())
		}
	}
}

// TestProcessZeroRate pins the lower boundary: at rate 0 no process ever
// offers a message.
func TestProcessZeroRate(t *testing.T) {
	for _, name := range ProcessNames() {
		p, err := ProcessByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := empiricalRate(p, 16, 2000, 0, rng.New(3)); got != 0 {
			t.Errorf("%s offered %v messages/node-step at rate 0", name, got)
		}
	}
}

// TestProcessAtMaxRate pins the upper boundary: offered load at the
// process's own MaxRate realizes that rate (Bernoulli degenerates to one
// arrival every step; bursty to one arrival every ON step, i.e. the duty
// cycle).
func TestProcessAtMaxRate(t *testing.T) {
	// Bernoulli at MaxRate 1 is deterministic: exactly one per node-step.
	b := &Bernoulli{}
	if got := empiricalRate(b, 16, 2000, b.MaxRate(), rng.New(5)); got != 1 {
		t.Errorf("bernoulli at max rate realized %v, want exactly 1", got)
	}
	// Bursty at MaxRate (the duty cycle) injects every ON step; the
	// realized rate is the empirical ON fraction, close to the duty.
	bu := NewBursty(8, 24)
	got := empiricalRate(bu, 64, 20000, bu.MaxRate(), rng.New(5))
	if math.Abs(got-bu.MaxRate()) > 0.02 {
		t.Errorf("bursty at max rate %v realized %v", bu.MaxRate(), got)
	}
}

// TestProcessMaxRateValues pins the cap formulas themselves.
func TestProcessMaxRateValues(t *testing.T) {
	if got := (&Bernoulli{}).MaxRate(); got != 1 {
		t.Errorf("bernoulli MaxRate = %v, want 1", got)
	}
	if got := (&Poisson{}).MaxRate(); !math.IsInf(got, 1) {
		t.Errorf("poisson MaxRate = %v, want +Inf", got)
	}
	if got := NewBursty(8, 24).MaxRate(); got != 0.25 {
		t.Errorf("bursty(8,24) MaxRate = %v, want 0.25", got)
	}
	// Degenerate constructor arguments clamp to 1, never divide by zero.
	if got := NewBursty(0, 0).MaxRate(); got != 0.5 {
		t.Errorf("bursty(0,0) MaxRate = %v, want 0.5 (clamped 1/1)", got)
	}
}

// TestBurstyResetRewinds pins that Reset rewinds the per-node chains: two
// identically seeded runs through the same process object realize the
// identical arrival sequence.
func TestBurstyResetRewinds(t *testing.T) {
	b := NewBursty(8, 24)
	first := empiricalRate(b, 32, 500, 0.2, rng.New(11))
	second := empiricalRate(b, 32, 500, 0.2, rng.New(11))
	if first != second {
		t.Errorf("bursty replay diverged: %v then %v", first, second)
	}
}
