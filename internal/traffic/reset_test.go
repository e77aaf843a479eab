package traffic

import (
	"bytes"
	"slices"
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
	"ndmesh/internal/stats"
)

// offer is one (step, src, dst) a source emitted.
type offer struct {
	step     int
	src, dst grid.NodeID
}

// drive steps src for steps steps, refusing every fourth offer, and hands
// every accepted one to settle with its running index; it returns the
// offers in emit order.
func drive(src Injector, steps int, settle func(i int, src, dst grid.NodeID)) []offer {
	var out []offer
	for step := 0; step < steps; step++ {
		var accepted []offer
		src.Step(func(s, d grid.NodeID) bool {
			out = append(out, offer{step, s, d})
			if len(out)%4 == 0 {
				return false
			}
			accepted = append(accepted, offer{step, s, d})
			return true
		})
		for _, o := range accepted {
			settle(len(out), o.src, o.dst)
		}
	}
	return out
}

// TestSourceResetMatchesFresh holds each source's in-place Reset to its
// constructor: a source driven into a dirty state (timeouts pending, streaks
// and backoffs running, a bursty process mid-burst), then Reset with other
// arguments, emits what a fresh source of those arguments emits, and a
// Reset of a source of the same size allocates nothing. A trace player,
// rewound onto another trace after playing past the end of one, offers what
// a freshly set player offers, and a trace recorder, rewound onto another
// source and the trace it filled, passes and records what a fresh one does.
func TestSourceResetMatchesFresh(t *testing.T) {
	shape := meshtest.MustShape(6, 5)
	uniform, transpose := NewUniform(shape), NewTranspose(shape)
	noop := func(int, grid.NodeID, grid.NodeID) {}

	t.Run("generator", func(t *testing.T) {
		g := NewGenerator(shape, uniform, NewBursty(3, 5), 0.2, rng.New(1))
		drive(g, 30, noop)
		r := rng.New(2)
		g.Reset(shape, transpose, g.proc, 0.25, r)
		got := drive(g, 40, noop)
		want := drive(NewGenerator(shape, transpose, NewBursty(3, 5), 0.25, rng.New(2)), 40, noop)
		if !slices.Equal(got, want) {
			t.Fatalf("reset generator emitted %v, fresh %v", head(got), head(want))
		}
		if n := testing.AllocsPerRun(10, func() { g.Reset(shape, transpose, g.proc, 0.25, r) }); n != 0 {
			t.Fatalf("Reset allocates %v times", n)
		}
	})

	t.Run("retry", func(t *testing.T) {
		// Every third accepted offer times out; the rest settle.
		settle := func(q *RetrySource) func(int, grid.NodeID, grid.NodeID) {
			return func(i int, src, dst grid.NodeID) {
				if i%3 == 0 {
					q.Timeout(src, dst, i%2 == 0)
				} else {
					q.Settle(src)
				}
			}
		}
		gen := NewGenerator(shape, uniform, &Bernoulli{}, 0.3, rng.New(3))
		q := NewRetrySource(gen, shape.NumNodes(), 2, rng.New(4))
		drive(q, 25, settle(q))
		if len(q.pending) == 0 {
			t.Fatal("the dirty source holds no pending retry")
		}
		r := rng.New(5)
		gen.Reset(shape, transpose, &Bernoulli{}, 0.3, r)
		q.Reset(gen, shape.NumNodes(), 3, r)
		got := drive(q, 40, settle(q))
		fr := rng.New(5)
		fresh := NewRetrySource(NewGenerator(shape, transpose, &Bernoulli{}, 0.3, fr), shape.NumNodes(), 3, fr)
		want := drive(fresh, 40, settle(fresh))
		if !slices.Equal(got, want) || q.PendingMeasured() != fresh.PendingMeasured() || len(q.pending) != len(fresh.pending) {
			t.Fatalf("reset retry source emitted %v (%d pending), fresh %v (%d pending)", head(got), len(q.pending), head(want), len(fresh.pending))
		}
		if n := testing.AllocsPerRun(10, func() { q.Reset(gen, shape.NumNodes(), 3, r) }); n != 0 {
			t.Fatalf("Reset allocates %v times", n)
		}
	})

	t.Run("closed-loop", func(t *testing.T) {
		// Every third accepted request times out; the rest are released.
		settle := func(c *ClosedLoop) func(int, grid.NodeID, grid.NodeID) {
			return func(i int, src, _ grid.NodeID) {
				if i%3 == 0 {
					c.Timeout(src)
				} else {
					c.Release(src)
				}
			}
		}
		c := NewClosedLoop(shape, uniform, 3, rng.New(6))
		c.ConfigureRetry(4)
		drive(c, 25, settle(c))
		r := rng.New(7)
		c.Reset(shape, transpose, 2, r)
		got := drive(c, 40, settle(c))
		fresh := NewClosedLoop(shape, transpose, 2, rng.New(7))
		want := drive(fresh, 40, settle(fresh))
		if !slices.Equal(got, want) || !slices.Equal(c.outstanding, fresh.outstanding) || !slices.Equal(c.blockedUntil, fresh.blockedUntil) {
			t.Fatalf("reset closed loop emitted %v (outstanding %v), fresh %v (outstanding %v)", head(got), c.outstanding, head(want), fresh.outstanding)
		}
		if n := testing.AllocsPerRun(10, func() { c.Reset(shape, transpose, 2, r) }); n != 0 {
			t.Fatalf("Reset allocates %v times", n)
		}
	})

	t.Run("trace-player", func(t *testing.T) {
		first, _ := recordOffers(t, shape, 20)
		second, _ := recordOffers(t, meshtest.MustShape(4, 4), 12)
		var p TracePlayer
		p.Reset(first)
		drive(&p, 25, noop) // past the end of the recording
		p.Reset(second)
		got := drive(&p, 15, noop)
		var fresh TracePlayer
		fresh.Reset(second)
		want := drive(&fresh, 15, noop)
		if !slices.Equal(got, want) || len(got) != second.Offers() {
			t.Fatalf("reset player offered %v, fresh %v (%d recorded)", head(got), head(want), second.Offers())
		}
		if n := testing.AllocsPerRun(10, func() { p.Reset(first) }); n != 0 {
			t.Fatalf("Reset allocates %v times", n)
		}
	})

	t.Run("trace-recorder", func(t *testing.T) {
		var tr Trace
		var rec TraceRecorder
		rec.Reset(NewGenerator(shape, uniform, NewBursty(3, 5), 0.2, rng.New(8)), &tr)
		drive(&rec, 30, noop)
		gen := NewGenerator(shape, transpose, &Bernoulli{}, 0.3, rng.New(9))
		rec.Reset(gen, &tr)
		got := drive(&rec, 40, noop)
		var freshTr Trace
		var fresh TraceRecorder
		fresh.Reset(NewGenerator(shape, transpose, &Bernoulli{}, 0.3, rng.New(9)), &freshTr)
		want := drive(&fresh, 40, noop)
		if !slices.Equal(got, want) || !bytes.Equal(tr.Marshal(), freshTr.Marshal()) {
			t.Fatalf("reset recorder emitted %v (%d offers recorded), fresh %v (%d recorded)", head(got), tr.Offers(), head(want), freshTr.Offers())
		}
		if tr.Offers() != len(got) || tr.Steps() != 40 {
			t.Fatalf("the recording holds %d offers over %d steps, the run made %d over 40", tr.Offers(), tr.Steps(), len(got))
		}
		if n := testing.AllocsPerRun(10, func() { rec.Reset(gen, &tr) }); n != 0 {
			t.Fatalf("Reset allocates %v times", n)
		}
	})
}

// TestPatternsBuildOnce holds the per-simulation pattern set to ByName: one
// pattern per name while the shape stays (drawing the destinations a fresh
// ByName pattern draws), a rebuild when it changes, and ByName's errors.
func TestPatternsBuildOnce(t *testing.T) {
	shape := meshtest.MustShape(5, 7)
	var ps Patterns
	for _, name := range PatternNames() {
		p, err := ps.ByName(shape, name)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := ps.ByName(shape, name); again != p {
			t.Fatalf("%s: a second request built another pattern", name)
		}
		fresh, _ := ByName(shape, name)
		r1, r2 := rng.New(9), rng.New(9)
		for src := grid.NodeID(0); int(src) < shape.NumNodes(); src++ {
			if got, want := p.Dest(src, r1), fresh.Dest(src, r2); got != want {
				t.Fatalf("%s: Dest(%d) = %d, a fresh pattern gives %d", name, src, got, want)
			}
		}
	}
	other := meshtest.MustShape(5, 7)
	p, _ := ps.ByName(shape, "transpose")
	if q, _ := ps.ByName(other, "transpose"); q == p {
		t.Fatal("a new shape got the old shape's pattern")
	}
	if _, err := ps.ByName(other, "nope"); err == nil {
		t.Fatal("an unknown name built a pattern")
	}
	if _, err := ps.ByName(meshtest.MustShape(1), "uniform"); err == nil {
		t.Fatal("a one-node shape built a pattern")
	}
}

// TestSummarizeMatchesCopyAndSort holds Summarize, which takes the mean in
// arrival order and then ranks the sample in place, to the summary it gave
// when it ranked a sorted copy: on empty, one-element, all-equal and
// duplicate-heavy samples and on random ones.
func TestSummarizeMatchesCopyAndSort(t *testing.T) {
	reference := func(samples []int) LatencySummary {
		if len(samples) == 0 {
			return LatencySummary{}
		}
		var sum stats.Summary
		for _, v := range samples {
			sum.AddInt(v)
		}
		sorted := slices.Clone(samples)
		slices.Sort(sorted)
		at := func(p float64) int { return sorted[int(p*float64(len(sorted)-1))] }
		return LatencySummary{Mean: sum.Mean(), P50: at(0.50), P95: at(0.95), P99: at(0.99), Max: int(sum.Max()), N: len(samples)}
	}
	cases := [][]int{nil, {}, {7}, {3, 3, 3, 3, 3}, {5, 1, 5, 1, 5, 2, 2, 9, 9, 1}}
	r := rng.New(13)
	for i := 0; i < 50; i++ {
		s := make([]int, r.Intn(300))
		for j := range s {
			s[j] = r.Intn(1 + i*4) // small ranges repeat values
		}
		cases = append(cases, s)
	}
	for i, s := range cases {
		want := reference(s)
		if got := Summarize(s); got != want {
			t.Fatalf("case %d (n=%d): Summarize = %+v, copy-and-sort %+v", i, len(s), got, want)
		}
		if !slices.IsSorted(s) {
			t.Fatalf("case %d: Summarize left the sample unsorted", i)
		}
	}
}
