package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
)

var updateFixtures = flag.Bool("update-fixtures", false, "rewrite the testdata/ fixtures from this tree")

// history is one fail/repair history: the primitive knobs FuzzModelHistory
// mutates, decoded by the methods below into a shape and a
// fault.GenerateProcess schedule. No MinSpacing and arrival rates far above repair rates keep
// several faults alive at once on a small interior, so faults land adjacent
// to each other and blocks merge, split and dissolve — the regime
// placeSeparated(…, sep=5) never draws.
type history struct {
	seed      uint64
	shape     uint8 // index into historyShapes (mod len)
	lambda    uint8 // information rounds per step, folded into {1, 2}
	weibull   bool  // weibull(0.7) arrivals and repairs instead of bernoulli
	clustered bool  // arrivals placed adjacent to a live fault
	arrival   uint8 // arrival rate in percent, folded into [10, 60]
	repair    uint8 // repair rate in percent, folded into [2, 12]
	deep      bool  // on historyDeepShape instead of historyShapes[shape]
}

type historyShape struct {
	name string
	dims []int
}

var historyShapes = []historyShape{{"8x8", []int{8, 8}}, {"12x12", []int{12, 12}}, {"5x6x4", []int{5, 6, 4}}}

// historyDeepShape is the shape of historyDeepCorpus: 4-D, so every
// identification is a level-4 run whose edge positions activate level-3
// sub-identifications and whose collectors gather what collectors gathered.
// It stays out of historyShapes, whose mod-len indexing names the first
// corpus's histories and decodes every fuzz input.
var historyDeepShape = historyShape{"6x6x6x6", []int{6, 6, 6, 6}}

const (
	historyHorizon = 48 // last step an arrival may land on
	historyTail    = 24 // further steps: late repairs, dissolving blocks
)

func (h history) String() string {
	model, place := "bernoulli", "scattered"
	if h.weibull {
		model = "weibull"
	}
	if h.clustered {
		place = "clustered"
	}
	return fmt.Sprintf("%s/%s/%s/arr%d/rep%d/lambda%d/seed%d",
		h.on().name, model, place, h.arrivalPct(), h.repairPct(), h.rounds(), h.seed)
}

func (h history) on() historyShape {
	if h.deep {
		return historyDeepShape
	}
	return historyShapes[int(h.shape)%len(historyShapes)]
}

func (h history) dims() []int     { return h.on().dims }
func (h history) rounds() int     { return 1 + int(h.lambda)%2 }
func (h history) arrivalPct() int { return 10 + int(h.arrival)%51 }
func (h history) repairPct() int  { return 2 + int(h.repair)%11 }

// other is a different history on the same shape: what the recycled model
// ran before its Reset.
func (h history) other() history {
	h.seed = h.seed*0x9e3779b97f4a7c15 + 1
	h.clustered = !h.clustered
	h.arrival += 17
	return h
}

func (h history) schedule(t testing.TB, shape *grid.Shape) *fault.Schedule {
	delay := func(pct int) fault.Delay {
		if h.weibull {
			return fault.Delay{Model: fault.DelayWeibull, Rate: float64(pct) / 100, Shape: 0.7}
		}
		return fault.Delay{Model: fault.DelayBernoulli, Rate: float64(pct) / 100}
	}
	sched, err := fault.GenerateProcess(shape, fault.ProcessOptions{
		Arrival:   delay(h.arrivalPct()),
		Repair:    delay(h.repairPct()),
		Start:     1,
		Horizon:   historyHorizon,
		MaxActive: 8,
		Clustered: h.clustered,
	}, rng.New(h.seed))
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// historyCorpus is the fixed set of histories: every shape x lambda x delay
// model x placement, two seeds and two rate pairs each (48 histories).
func historyCorpus() []history {
	var out []history
	for shape := range historyShapes {
		for lambda := uint8(0); lambda < 2; lambda++ {
			for _, weibull := range []bool{false, true} {
				for _, clustered := range []bool{false, true} {
					for k := uint8(0); k < 2; k++ {
						out = append(out, history{
							seed:  uint64(7 + 13*len(out)),
							shape: uint8(shape), lambda: lambda,
							weibull: weibull, clustered: clustered,
							arrival: 15 + 25*k, // 25% and 50% per step
							repair:  2 + 5*k,   // 4% and 9% per step
						})
					}
				}
			}
		}
	}
	return out
}

// historyDeepCorpus is the second, separately listed set: lambda x delay
// model x placement on historyDeepShape, alternating the two rate pairs
// (8 histories). Its digests follow the first corpus's in the fixture.
func historyDeepCorpus() []history {
	var out []history
	for lambda := uint8(0); lambda < 2; lambda++ {
		for _, weibull := range []bool{false, true} {
			for _, clustered := range []bool{false, true} {
				k := uint8(len(out) % 2)
				out = append(out, history{
					seed: uint64(1009 + 13*len(out)), deep: true, lambda: lambda,
					weibull: weibull, clustered: clustered,
					arrival: 15 + 25*k, repair: 2 + 5*k,
				})
			}
		}
	}
	return out
}

// observe appends everything the rest of the stack can see of the model:
// node statuses, frame announcements and stored records per node in order,
// the epoch, and the counters the engine's event accounting reads.
func observe(buf []byte, md *Model) []byte {
	u32 := func(v int) { buf = binary.LittleEndian.AppendUint32(buf, uint32(v)) }
	for id := 0; id < md.M.NumNodes(); id++ {
		node := grid.NodeID(id)
		buf = append(buf, byte(md.M.Status(node)), byte(md.M.CleanAge(node)))
		anns := md.Detector.Records(node)
		u32(len(anns))
		for _, a := range anns {
			buf = append(buf, a.Level)
			u32(int(a.Dirs))
		}
		recs := md.Store.At(node)
		u32(len(recs))
		for _, r := range recs {
			box := md.Store.Box(r.Block)
			for i := range box.Lo {
				u32(box.Lo[i])
				u32(box.Hi[i])
			}
			u32(int(r.Epoch))
		}
	}
	u32(int(md.epoch))
	for _, v := range []int{
		md.RoundCount(), md.Store.TotalRecords(), md.Labeling.Affected(), md.CancelsStarted,
		md.LastLabelRound, md.LastFrameRound, md.LastIdentRound, md.LastBoundaryRound,
		md.Ident.Hops, md.Ident.Started, md.Ident.Completed, md.Ident.Failed, identRuns(md),
		md.Boundary.Hops, floods(md), tombstones(md),
	} {
		u32(v)
	}
	return buf
}

// checkOpenSets holds the mesh's open sets — derived state the routers read in
// place of one-hop sensing — to their definition, recomputed from the neighbor
// table and the statuses. The labeling protocol's own relabels (enabled ->
// disabled -> clean -> enabled) are the traffic that must keep them true.
func checkOpenSets(t testing.TB, h history, m *mesh.Mesh, step int) {
	for id := grid.NodeID(0); int(id) < m.NumNodes(); id++ {
		var want grid.DirSet
		for d := grid.Dir(0); int(d) < m.Shape().NumDirs(); d++ {
			if nb := m.Neighbor(id, d); nb != grid.InvalidNode && m.Status(nb) == mesh.Enabled {
				want = want.Add(d)
			}
		}
		if got := m.Open(id); got != want {
			t.Fatalf("%v: step %d: Open(%d) = %b, statuses say %b", h, step, id, got, want)
		}
	}
}

// drive replays the history on md, calling after with the round's activity
// once per round.
func (h history) drive(t testing.TB, md *Model, after func(step, activity int)) {
	replay(md, h.schedule(t, md.M.Shape()), historyHorizon+historyTail, h.rounds(), after)
}

// replay applies sched to md the way engine.Step does — the step's events,
// then lambda information rounds — for the given number of steps.
func replay(md *Model, sched *fault.Schedule, steps, lambda int, after func(step, activity int)) {
	next := 0
	for step := 1; step <= steps; step++ {
		for ; next < len(sched.Events) && sched.Events[next].Step <= step; next++ {
			md.Labeling.ResetAffected()
			switch ev := sched.Events[next]; ev.Kind {
			case fault.Fail:
				md.ApplyFault(ev.Node)
			case fault.Recover:
				md.ApplyRecovery(ev.Node)
			}
		}
		for i := 0; i < lambda; i++ {
			after(step, md.Round())
		}
	}
}

// checkHistory runs h on a fresh model and, in lockstep, on a model that ran
// a different history first and was Reset; the two must be observationally
// identical after every round, and each mesh's open sets must equal their
// recomputation from the statuses. It returns the digest of the fresh model's
// whole trajectory (per-round activity and observation), the most disabled
// nodes it ever held — nonzero only when faults stood close enough for a
// block to outgrow them — and how many identification runs it completed.
func checkHistory(t testing.TB, h history) (digest string, peakDisabled, identified int) {
	shape := meshtest.MustShape(h.dims()...)
	recycled := New(mesh.New(shape))
	h.other().drive(t, recycled, func(int, int) {})
	recycled.Reset()

	// The fresh model's per-round observations are recorded, then the
	// recycled run is held to them round by round.
	type roundObs struct {
		activity int
		state    []byte
	}
	var trace []roundObs
	sum := sha256.New()
	fresh := New(mesh.New(shape))
	h.drive(t, fresh, func(step, activity int) {
		checkOpenSets(t, h, fresh.M, step)
		o := roundObs{activity: activity, state: observe(nil, fresh)}
		trace = append(trace, o)
		peakDisabled = max(peakDisabled, meshtest.Count(fresh.M, mesh.Disabled))
		sum.Write(binary.LittleEndian.AppendUint32(nil, uint32(activity)))
		sum.Write(o.state)
	})
	k := 0
	h.drive(t, recycled, func(step, activity int) {
		want := trace[k]
		k++
		checkOpenSets(t, h, recycled.M, step)
		if activity != want.activity {
			t.Fatalf("%v: step %d round %d: recycled model activity %d, fresh %d", h, step, k, activity, want.activity)
		}
		if got := observe(nil, recycled); !bytes.Equal(got, want.state) {
			t.Fatalf("%v: step %d round %d: recycled model diverges from a fresh one", h, step, k)
		}
	})
	return hex.EncodeToString(sum.Sum(nil)), peakDisabled, fresh.Ident.Completed
}

// loadFixture decodes testdata/name into want — after rewriting it from got
// when -update-fixtures is set.
func loadFixture(t *testing.T, name string, got, want any) {
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

type historyDigest struct {
	History string `json:"history"`
	Digest  string `json:"digest"`
}

// TestModelHistoryDifferential certifies "same behaviour" of the
// information plane on histories neither the goldens nor the bench
// workloads reach: (a) Reset equivalence after every round, (b) the
// trajectory digest of every corpus history equals the committed fixture,
// which was generated before the NodeSet/CoordView rewrite of
// block/frame/ident/boundary and must never be regenerated alongside a
// change to them. The deep corpus's digests (n = 4: nested subs, collectors
// gathering collectors) follow under their own keys; they were generated
// before the one-owner rewrite of ident's box storage, under the same rule.
func TestModelHistoryDifferential(t *testing.T) {
	var got []historyDigest
	grown := 0
	for _, h := range historyCorpus() {
		digest, peakDisabled, _ := checkHistory(t, h)
		got = append(got, historyDigest{History: h.String(), Digest: digest})
		if peakDisabled > 0 {
			grown++
		}
	}
	if len(got) < 40 || grown < len(got)/2 {
		t.Fatalf("corpus has %d histories, %d with blocks larger than their faults: want >= 40, at least half of them merging", len(got), grown)
	}
	deep, completing := historyDeepCorpus(), 0
	for _, h := range deep {
		digest, _, identified := checkHistory(t, h)
		got = append(got, historyDigest{History: h.String(), Digest: digest})
		t.Logf("%v: %d level-4 runs completed", h, identified)
		if identified > 0 {
			completing++
		}
	}
	if completing < len(deep)/2 {
		t.Fatalf("%d of %d deep histories complete a level-4 identification: want at least half", completing, len(deep))
	}
	const fixture = "model_history_digests.json"
	var want []historyDigest
	loadFixture(t, fixture, got, &want)
	if len(want) != len(got) {
		t.Fatalf("%s holds %d digests, corpus has %d", fixture, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("history %d: got %+v, fixture %+v", i, got[i], want[i])
		}
	}
}

// FuzzModelHistory is oracle (a) of TestModelHistoryDifferential over
// arbitrary histories, seeded with the corpus. Each history is then run to
// its end and to quiescence: one tombstone lifetime of idle rounds must
// leave no cancel tombstone, and a corpus history's oracle gaps (holes,
// stale records, unbuilt blocks) must stay within its end cut's entry in
// testdata/oracle_gaps.json.
func FuzzModelHistory(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("testdata", "oracle_gaps.json"))
	if err != nil {
		f.Fatal(err)
	}
	var gaps []oracleGap
	if err := json.Unmarshal(data, &gaps); err != nil {
		f.Fatal(err)
	}
	bound := map[string]oracleGap{}
	for _, g := range gaps {
		bound[g.Case] = g
	}
	for _, h := range historyCorpus() {
		f.Add(h.seed, h.shape, h.lambda, h.weibull, h.clustered, h.arrival, h.repair)
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape, lambda uint8, weibull, clustered bool, arrival, repair uint8) {
		h := history{seed: seed, shape: shape, lambda: lambda, weibull: weibull, clustered: clustered, arrival: arrival, repair: repair}
		checkHistory(t, h)
		const end = historyHorizon + historyTail
		md, ok := h.cutAndStabilize(t, end)
		if !ok {
			return // the labeling cycles: no quiescence to measure
		}
		name := fmt.Sprintf("%v/cut%d", h, end)
		if want, ok := bound[name]; ok {
			holes, stale, unbuilt := oracleGaps(md)
			if holes > want.Holes || stale > want.Stale || unbuilt > want.Unbuilt {
				t.Errorf("%s leaves %d holes, %d stale records, %d unbuilt blocks; the fixture allows %+v", name, holes, stale, unbuilt, want)
			}
		}
		diameter := md.M.Shape().Diameter()
		for range diameter {
			md.Round()
		}
		if n := tombstones(md); n != 0 {
			t.Errorf("%v: %d tombstones left %d idle rounds after quiescence", h, n, diameter)
		}
	})
}

// modelStorm returns a fresh model and the fault process of
// BenchmarkModelStorm: the standing benchmark's `fault-storm` process
// (16x16, bernoulli arrivals at 0.2 per step, mean repair 24 steps),
// replayed over modelStormSteps steps of lambda=2 rounds.
func modelStorm(tb testing.TB) (*Model, *fault.Schedule) {
	md := New(mesh.New(meshtest.MustShape(16, 16)))
	sched, err := fault.GenerateProcess(md.M.Shape(), fault.ProcessOptions{
		Arrival: fault.Delay{Model: fault.DelayBernoulli, Rate: 0.2},
		Repair:  fault.Delay{Model: fault.DelayBernoulli, Rate: 1.0 / 24},
		Start:   1, Horizon: modelStormSteps - 1,
	}, rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	return md, sched
}

const modelStormSteps, modelStormLambda = 704, 2

// coldModelStormAllocs is TestColdModelStormAllocs's ratchet (the history
// reads 75, 76 under the race detector; 78 while watches kept their
// boxes' text, boundary's placements their boxes' copies and ident its
// retired runs one round longer; 102 while the labeling and frame rounds'
// lists grew by append). Only ever lower it.
const coldModelStormAllocs = 87

// TestColdModelStormAllocs holds BenchmarkModelStorm's history, replayed on
// a fresh Model, to the ratchet: every object and list of the information
// plane fills from empty, at an allocation per chunk, not one per flood,
// walker or watch (603 when each was allocated on its own), and each round's
// node lists take their bound on their first growth.
// The model and the fault process are built before the count starts. The
// count is the least of two runs, since a collection ending inside a run
// counts the runtime's own allocations.
func TestColdModelStormAllocs(t *testing.T) {
	got := uint64(math.MaxUint64)
	for range 2 {
		md, sched := modelStorm(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replay(md, sched, modelStormSteps, modelStormLambda, func(int, int) {})
		runtime.ReadMemStats(&after)
		if md.Boundary.Hops == 0 {
			t.Fatal("the storm built no boundary")
		}
		got = min(got, after.Mallocs-before.Mallocs)
	}
	t.Logf("a cold model storm allocates %d times", got)
	if got > coldModelStormAllocs {
		t.Fatalf("a cold model storm allocates %d times, ratchet %d", got, coldModelStormAllocs)
	}
}

// BenchmarkModelStorm is the information plane of the standing benchmark's
// `fault-storm` workload alone: its fault process (see modelStorm) replayed
// through a reused Model with no flights, so
// `go test ./internal/core -run '^$' -bench ModelStorm -cpu 1 -cpuprofile cpu.prof`
// profiles labeling, frames, identification and the boundary floods without
// the router. Beside the peak of stored records it reports the work the
// boundary floods leave behind: the most cancel tombstones held at once and
// the floods' node visits per op.
func BenchmarkModelStorm(b *testing.B) {
	md, sched := modelStorm(b)
	b.ReportAllocs()
	b.ResetTimer()
	peak, tombs := 0, 0
	for i := 0; i < b.N; i++ {
		md.Reset()
		replay(md, sched, modelStormSteps, modelStormLambda, func(int, int) {
			peak = max(peak, md.Store.TotalRecords())
			tombs = max(tombs, tombstones(md))
		})
	}
	b.ReportMetric(float64(peak), "records_peak")
	b.ReportMetric(float64(tombs), "tombstones_peak")
	b.ReportMetric(float64(md.Boundary.Hops), "hops/op")
}
