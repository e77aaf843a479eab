package rng

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
	c := New(12346)
	same := 0
	a.Reseed(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestReseed(t *testing.T) {
	r := New(7)
	first := make([]uint64, 10)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("reseed did not reset stream at %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	child1 := parent.Split()
	child2 := parent.Split()
	// Children must differ from each other.
	diff := false
	for i := 0; i < 100; i++ {
		if child1.Uint64() != child2.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("split children produced identical streams")
	}
	// Splitting is deterministic given the parent seed.
	p2 := New(99)
	c1 := p2.Split()
	c1b := New(0)
	*c1b = *c1
	r := New(99).Split()
	for i := 0; i < 100; i++ {
		if r.Uint64() != c1b.Uint64() {
			t.Fatal("split not deterministic")
		}
	}
}

// TestSplitIntoMatchesSplit holds the in-place split to Split: the same
// child stream, the same one draw from the parent, and no allocation.
func TestSplitIntoMatchesSplit(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 4; i++ {
		want := a.Split()
		var got Source
		b.SplitInto(&got)
		if got != *want {
			t.Fatalf("split %d: SplitInto seeded %v, Split %v", i, got, *want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitInto and Split left the parent in different states")
	}
	var child Source
	if n := testing.AllocsPerRun(100, func() { b.SplitInto(&child) }); n != 0 {
		t.Fatalf("SplitInto allocates %v times per call", n)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(1)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(42)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %f", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %f, want ~0.5", mean)
	}
}

func TestBool(t *testing.T) {
	r := New(8)
	trues := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool(0.25) {
			trues++
		}
	}
	got := float64(trues) / draws
	if math.Abs(got-0.25) > 0.01 {
		t.Errorf("Bool(0.25) rate = %f", got)
	}
}

func TestGeometric(t *testing.T) {
	r := New(17)
	var sum float64
	const draws = 20000
	for i := 0; i < draws; i++ {
		g := r.Geometric(0.25)
		if g < 1 {
			t.Fatalf("Geometric < 1: %d", g)
		}
		sum += float64(g)
	}
	if mean := sum / draws; math.Abs(mean-4) > 0.2 {
		t.Errorf("Geometric(0.25) mean = %f, want ~4", mean)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	r.Geometric(0)
}

func TestIntnPropertyInRange(t *testing.T) {
	r := New(23)
	prop := func(n uint16) bool {
		bound := int(n%1000) + 1
		v := r.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// boolRuns draws n trials of probability p from two copies of the seed's
// stream, once by n Bool calls and once by Failures calls, each resuming
// after the success the last one reported, and returns the successful
// trials each way and the output each stream gives next.
func boolRuns(seed uint64, p float64, n int) (want, got []int, wantNext, gotNext uint64) {
	a, b := New(seed), New(seed)
	for i := 0; i < n; i++ {
		if a.Bool(p) {
			want = append(want, i)
		}
	}
	for i := b.Failures(p, n); i < n; i += 1 + b.Failures(p, n-i-1) {
		got = append(got, i)
	}
	return want, got, a.Uint64(), b.Uint64()
}

// TestFailuresMatchesBool pins the one-pass draw to the per-trial one: it
// consumes exactly the draws of n Bool(p) calls and reports the same
// successes, at the edges of p's range (0, the smallest threshold, 1 minus
// the largest, 1 and past it) and at the rates load runs use.
func TestFailuresMatchesBool(t *testing.T) {
	for _, p := range []float64{0, 0x1p-53, 0.02, 0.12, 1.0 / 3, 1 - 0x1p-53, 1, 1.5} {
		for seed := uint64(1); seed <= 6; seed++ {
			for _, n := range []int{0, 1, 1024} {
				want, got, wantNext, gotNext := boolRuns(seed, p, n)
				if !slices.Equal(got, want) || gotNext != wantNext {
					t.Fatalf("p=%v seed=%d n=%d: successes %v, Bool gives %v; next output %x, Bool's stream %x",
						p, seed, n, got, want, gotNext, wantNext)
				}
			}
		}
	}
}

// TestFailuresThreshold aims single draws at the threshold itself: the
// stream is set so the next output's top 53 bits are x for every x around
// ceil(p·2^53) and at both ends, and one trial must succeed exactly when
// Bool(p) does.
func TestFailuresThreshold(t *testing.T) {
	// Inverses of the output scramble's odd multipliers, mod 2^64.
	inv := func(a uint64) uint64 {
		x := a // Newton's iteration doubles the correct low bits each step
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	inv5, inv9 := inv(5), inv(9)
	for _, p := range []float64{0, 0x1p-53, 0.02, 0.12, 1.0 / 3, 0.5, 1 - 0x1p-53, 1, 1.5} {
		t0 := uint64(math.Ceil(p * (1 << 53)))
		for _, x := range []uint64{0, 1, t0 - 1, t0, t0 + 1, 1<<53 - 1} {
			if x >= 1<<53 {
				continue
			}
			u := x<<11 | 0x5a5
			var a Source
			a.s = [4]uint64{0x9E3779B97F4A7C15, bits.RotateLeft64(u*inv9, -7) * inv5, 3, 5}
			if out := bits.RotateLeft64(a.s[1]*5, 7) * 9; out != u {
				t.Fatalf("state aims at %x, gives %x", u, out)
			}
			b := a
			if got, want := a.Failures(p, 1) == 0, b.Bool(p); got != want {
				t.Errorf("p=%v draw x=%d: Failures says success=%v, Bool says %v", p, x, got, want)
			}
			if a.s != b.s {
				t.Errorf("p=%v draw x=%d: states diverge after one trial", p, x)
			}
		}
	}
}

// FuzzFailuresMatchesBool holds the one-pass draw to Bool calls for any p,
// NaN and infinities included, and any seed and trial count; the seeds are
// TestFailuresMatchesBool's edges.
func FuzzFailuresMatchesBool(f *testing.F) {
	for _, p := range []float64{0, 0x1p-53, 0.02, 0.12, 1.0 / 3, 1 - 0x1p-53, 1, 1.5} {
		f.Add(uint64(7), p, uint16(1024))
	}
	f.Fuzz(func(t *testing.T, seed uint64, p float64, n uint16) {
		want, got, wantNext, gotNext := boolRuns(seed, p, int(n%4096))
		if !slices.Equal(got, want) || gotNext != wantNext {
			t.Fatalf("p=%v seed=%d n=%d: successes %v, Bool gives %v; next output %x, Bool's stream %x",
				p, seed, n%4096, got, want, gotNext, wantNext)
		}
	})
}
