package core

import (
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
)

// leakCount is what one case leaves behind on a fault-free mesh: the paper
// withdraws a block's information when the block goes (Section 3), so every
// count should be zero. They are not yet; the fixture holds what the
// reference tree left, and only more than that fails.
type leakCount struct {
	Case          string `json:"case"`
	Records       int    `json:"records"`
	Blocks        int    `json:"blocks"`
	Watches       int    `json:"watches"`
	Constructions int    `json:"constructions"`
}

// leakStorms are the two 300-step, lambda=2 storms (see storm) that the
// leak and oracle ratchets run beside the history corpus.
var leakStorms = []struct {
	name string
	dims []int
	seed uint64
}{{"storm/16x16/seed19", []int{16, 16}, 19}, {"storm/8x8x8/seed23", []int{8, 8, 8}, 23}}

// recoverAll cuts whatever schedule drove md: every faulty node recovers at
// once, then the model runs to quiescence.
func recoverAll(t *testing.T, name string, md *Model) leakCount {
	t.Helper()
	for id := grid.NodeID(0); int(id) < md.M.NumNodes(); id++ {
		if md.M.Status(id) == mesh.Faulty {
			md.ApplyRecovery(id)
		}
	}
	md.Stabilize()
	if !md.Quiescent() {
		t.Errorf("%s: not quiescent inside Stabilize's cap after full recovery", name)
	}
	return leakCount{name, md.Store.TotalRecords(), namedBlocks(md), len(md.watches), floods(md)}
}

// TestFullRecoveryLeakRatchet runs every corpus history and one storm per
// shape, recovers every fault, stabilizes, and holds what is left — records,
// named blocks, live watches, in-flight constructions — to at most the
// counts committed in testdata/full_recovery_leak.json. The fixture may only
// be regenerated from a tree that leaves less.
func TestFullRecoveryLeakRatchet(t *testing.T) {
	var got []leakCount
	for _, h := range append(historyCorpus(), historyDeepCorpus()...) {
		md := New(mesh.New(meshtest.MustShape(h.dims()...)))
		h.drive(t, md, func(int, int) {})
		got = append(got, recoverAll(t, h.String(), md))
	}
	for _, s := range leakStorms {
		md := New(mesh.New(meshtest.MustShape(s.dims...)))
		storm(t, md, s.seed, 300, 2, func(int) {})
		got = append(got, recoverAll(t, s.name, md))
	}

	const fixture = "full_recovery_leak.json"
	var want []leakCount
	loadFixture(t, fixture, got, &want)
	if len(want) != len(got) {
		t.Fatalf("%s holds %d cases, the test runs %d", fixture, len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		if g.Case != w.Case || g.Records > w.Records || g.Blocks > w.Blocks || g.Watches > w.Watches || g.Constructions > w.Constructions {
			t.Errorf("case %d leaves %+v, the fixture allows %+v", i, g, w)
		}
	}
}
