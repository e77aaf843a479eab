package ndmesh

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ndmesh/internal/detour"
	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
	"ndmesh/internal/traffic"
)

// traceDigest is one (shape, seed) case of testdata/theorem_traces.json.
type traceDigest struct {
	Case    string `json:"case"`
	Samples int    `json:"samples"` // D(i) samples hashed, over all trials
	Digest  string `json:"digest"`
}

// TestTheoremTraceFixture pins what the E11-E13 sweep measures, not only
// what it concludes: every trial's trace (D0, Start, the D(i) samples,
// EndStep, Hops) and its intervals, hashed per (shape, seed). The
// TheoremReport aggregates cannot see a D(i) that moved — a conforming
// trial's flight has arrived before the next occurrence, and every
// violation count is zero on this grid — so each case also hashes storm
// trials through the same sampler and buildTrace: faults and recoveries
// every other step while the flight is in flight, one before injection,
// two in one step. Regenerate with -update-fixtures only from a tree whose
// sampling is the reference.
func TestTheoremTraceFixture(t *testing.T) {
	var got []traceDigest
	for _, dims := range [][]int{{12, 12}, {16, 16}, {8, 8, 8}} {
		for seed := uint64(1); seed <= 3; seed++ {
			h, samples := sha256.New(), 0
			add := func(tr detour.Trace, ivs []detour.Interval) {
				fmt.Fprintf(h, "%d %d %v %d %d %v\n", tr.D0, tr.Start, tr.DAt, tr.EndStep, tr.Hops, ivs)
				samples += len(tr.DAt)
			}
			trials, err := runGrid(fanOut{workers: 2}, seed, 24, func(p *EnginePool, _ int, r *rng.Source) (theoremTrial, error) {
				return p.theoremTrial(dims, r)
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range trials {
				add(res.tr, res.ivs)
			}
			storms, err := runGrid(fanOut{workers: 2}, seed, 24, func(p *EnginePool, _ int, r *rng.Source) (theoremTrial, error) {
				return stormTrace(p, dims, r)
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range storms {
				add(res.tr, res.ivs)
			}
			got = append(got, traceDigest{fmt.Sprintf("%s/seed%d", meshtest.MustShape(dims...), seed), samples, hex.EncodeToString(h.Sum(nil))})
		}
	}
	const fixture = "theorem_traces.json"
	var want []traceDigest
	loadJSONFixture(t, fixture, got, &want)
	if len(want) != len(got) {
		t.Fatalf("%s holds %d cases, the test runs %d", fixture, len(want), len(got))
	}
	for i, g := range got {
		if g.Samples == 0 {
			t.Errorf("%s: no D(i) sample hashed; the case proves nothing", g.Case)
		}
		if g != want[i] {
			t.Errorf("case %d measures %+v, the fixture holds %+v", i, g, want[i])
		}
	}
}

// stormTrace is a storm trial for TestTheoremTraceFixture: a fault every
// other step from step 3 on, each recovered 5 steps later (so a fault and a
// recovery share a step), one long-haul flight injected at step 4.
func stormTrace(p *EnginePool, dims []int, r *rng.Source) (theoremTrial, error) {
	var res theoremTrial
	sim, err := p.get(dims, 2)
	if err != nil {
		return res, err
	}
	defer p.put(sim)
	src, dst, err := traffic.DrawLongHaulPair(sim.shape, r)
	if err != nil {
		return res, err
	}
	sched, err := fault.Generate(sim.shape, 8, fault.Options{
		Interval: 2, Start: 3, RecoverAfter: 5,
		Exclude: []grid.NodeID{src, dst}, ExcludeRadius: 1, MinSpacing: 2,
	}, r)
	if err != nil {
		return res, err
	}
	setSchedule(sim, sched)
	sim.RunSteps(4)
	fl, err := sim.engine.Inject(src, dst, route.Limited{})
	if err != nil {
		return res, err
	}
	dAt := sampleDistances(sim.engine, fl, 16*sim.shape.Diameter())
	res.tr, res.ivs, _ = buildTrace(sim, fl, dAt, 1)
	return res, nil
}

// loadJSONFixture decodes testdata/name into want — after rewriting it
// from got when -update-fixtures is set.
func loadJSONFixture(t *testing.T, name string, got, want any) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateFixtures {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, want); err != nil {
		t.Fatal(err)
	}
}
