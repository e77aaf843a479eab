package ndmesh

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ndmesh/internal/rng"
	"ndmesh/internal/traffic"
)

// gridDraw is a runGrid job that touches everything a real sweep cell
// does: it checks a simulation out of the run's pool, consumes its
// pre-split stream and puts the simulation back.
func gridDraw(p *EnginePool, j int, r *rng.Source) (uint64, error) {
	sim, err := p.get([]int{4, 4}, 1)
	if err != nil {
		return 0, err
	}
	p.put(sim)
	return r.Uint64() ^ uint64(j), nil
}

// TestRunGridDeterministicAcrossWorkers is the determinism contract at its
// source: the per-job streams are split before the fan-out, so the result
// slice is identical at every worker count.
func TestRunGridDeterministicAcrossWorkers(t *testing.T) {
	const jobs = 37
	serial, err := runGrid(fanOut{workers: 1}, 9, jobs, gridDraw, nil)
	if err != nil {
		t.Fatal(err)
	}
	streams := splitN(9, jobs)
	for j, v := range serial {
		if want := streams[j].Uint64() ^ uint64(j); v != want {
			t.Fatalf("job %d drew %d, want the %d-th split of the seed (%d)", j, v, j, want)
		}
	}
	for _, w := range []int{2, runtime.GOMAXPROCS(0), 0} {
		got, err := runGrid(fanOut{workers: w}, 9, jobs, gridDraw, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: out differs from the serial run", w)
		}
	}
}

// TestRunGridHooks pins the progress tick and the done hook at a parallel
// width: progress counts up to (jobs, jobs), each count once, and done
// fires exactly once per job, in index order, seeing the slot the returned
// slice holds.
func TestRunGridHooks(t *testing.T) {
	const jobs = 23
	var mu sync.Mutex
	var ticks []int
	var seen []uint64
	out, err := runGrid(fanOut{workers: 4, progress: func(done, total int) {
		if total != jobs {
			t.Errorf("progress total = %d, want %d", total, jobs)
		}
		mu.Lock()
		ticks = append(ticks, done)
		mu.Unlock()
	}}, 5, jobs, gridDraw, func(out []uint64, j int) {
		if j != len(seen) {
			t.Errorf("done fired for job %d after %d calls", j, len(seen))
		}
		seen = append(seen, out[j])
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, out) {
		t.Errorf("done saw %v, the returned slice holds %v", seen, out)
	}
	sort.Ints(ticks)
	for i, d := range ticks {
		if d != i+1 {
			t.Fatalf("progress ticks %v are not 1..%d each once", ticks, jobs)
		}
	}
	if len(ticks) != jobs {
		t.Fatalf("progress ended at %d ticks, want (%d, %d)", len(ticks), jobs, jobs)
	}
}

// orderedDone is a done hook that fails unless its calls come in index
// order, one at a time, each after its slot holds final (want(j)); it
// yields inside each call so an overlapping one would land in the window.
// It returns the hook and the indices it saw.
func orderedDone(t *testing.T, want func(j int) int) (func(out []int, j int), *[]int) {
	var inFlight atomic.Int32
	var seen []int
	return func(out []int, j int) {
		if n := inFlight.Add(1); n != 1 {
			t.Errorf("done(%d) overlaps %d other call(s)", j, n-1)
		}
		defer inFlight.Add(-1)
		if j != len(seen) {
			t.Errorf("done fired for job %d after %d calls", j, len(seen))
		}
		if out[j] != want(j) {
			t.Errorf("done(%d) saw slot %d, want its final %d", j, out[j], want(j))
		}
		seen = append(seen, j)
		runtime.Gosched()
	}, &seen
}

// TestRunGridEmitsInIndexOrder: jobs that complete in reverse index order
// (within each run of `workers` jobs, job j returns only after job j+1
// has) still reach done as 0, 1, 2, … one call at a time, each after its
// slot is final.
func TestRunGridEmitsInIndexOrder(t *testing.T) {
	for _, w := range []int{2, 7, 64} {
		n := 3 * w
		returned := make([]chan struct{}, n)
		for j := range returned {
			returned[j] = make(chan struct{})
		}
		final := func(j int) int { return j + 1 }
		done, seen := orderedDone(t, final)
		out, err := runGrid(fanOut{workers: w}, 1, n, func(p *EnginePool, j int, r *rng.Source) (int, error) {
			defer close(returned[j])
			if (j+1)%w != 0 {
				<-returned[j+1]
			}
			return final(j), nil
		}, done)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(*seen) != n || len(out) != n {
			t.Errorf("workers=%d: done fired %d times for %d jobs", w, len(*seen), n)
		}
	}
}

// TestRunGridStopsAtFailure: when job k fails, done fires for exactly
// 0..k-1, k's error is the one returned, and no job above a known failure
// starts — the jobs above k wait until k has returned, so at most the
// other workers' w-1 jobs started above it before its failure was known.
func TestRunGridStopsAtFailure(t *testing.T) {
	const n, k = 200, 50
	for _, w := range []int{1, 2, 7, 64} {
		kReturned := make(chan struct{})
		var above atomic.Int32
		done, seen := orderedDone(t, func(j int) int { return j })
		_, err := runGrid(fanOut{workers: w}, 1, n, func(p *EnginePool, j int, r *rng.Source) (int, error) {
			switch {
			case j == k:
				defer close(kReturned)
				return 0, fmt.Errorf("job %d failed", j)
			case j > k:
				above.Add(1)
				<-kReturned
			}
			return j, nil
		}, done)
		if err == nil || err.Error() != fmt.Sprintf("job %d failed", k) {
			t.Errorf("workers=%d: err = %v, want job %d's", w, err, k)
		}
		if want := seqInts(k); !reflect.DeepEqual(*seen, want) {
			t.Errorf("workers=%d: done fired for %v, want 0..%d", w, *seen, k-1)
		}
		if got := int(above.Load()); got > w-1 {
			t.Errorf("workers=%d: %d jobs above the failure started, at most %d could", w, got, w-1)
		}
	}
}

func seqInts(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// goroutineID is the running goroutine's id, read off its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// TestRunGridSerialOnCaller: at one worker (and wherever the grid has a
// single job) every job and every done call runs on the caller's
// goroutine — the path LoadRun and the workers:1 benchmark bodies take.
func TestRunGridSerialOnCaller(t *testing.T) {
	caller := goroutineID()
	for _, tc := range []struct{ workers, jobs int }{{1, 9}, {0, 1}, {8, 1}} {
		check := func(where string) {
			if id := goroutineID(); id != caller {
				t.Errorf("workers=%d jobs=%d: %s ran on goroutine %s, not the caller's %s", tc.workers, tc.jobs, where, id, caller)
			}
		}
		_, err := runGrid(fanOut{workers: tc.workers}, 1, tc.jobs, func(p *EnginePool, j int, r *rng.Source) (int, error) {
			check("a job")
			return j, nil
		}, func(out []int, j int) { check("done") })
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunGridCoversEveryIndexOnce: every index runs exactly once at every
// width, a width past the job count included.
func TestRunGridCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 7, 64} {
		const n = 500
		counts := make([]atomic.Int32, n)
		if _, err := runGrid(fanOut{workers: w}, 1, n, func(p *EnginePool, j int, r *rng.Source) (struct{}, error) {
			counts[j].Add(1)
			return struct{}{}, nil
		}, nil); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for j := range counts {
			if c := counts[j].Load(); c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", w, j, c)
			}
		}
	}
}

// TestRunGridEmpty: a grid of no jobs runs none and returns no error.
func TestRunGridEmpty(t *testing.T) {
	for _, w := range []int{1, 4} {
		out, err := runGrid(fanOut{workers: w}, 1, 0, func(p *EnginePool, j int, r *rng.Source) (int, error) {
			return 0, errors.New("must not run")
		}, func([]int, int) { t.Error("done fired on an empty grid") })
		if err != nil || len(out) != 0 {
			t.Fatalf("workers=%d: out %v, err %v", w, out, err)
		}
	}
}

// TestRunGridLowestIndexError: of several failing jobs the error reported
// is the lowest index's, whatever order the workers hit them in, and no
// result slice comes back.
func TestRunGridLowestIndexError(t *testing.T) {
	checkLowestIndexError(t, 40, 5, func(j int) bool { return j >= 5 && j%2 == 1 })
}

// TestRunGridLowestOfSparseErrors: failures spread thinly across the grid
// (7, 37, 67, 97) still report the lowest one at every width.
func TestRunGridLowestOfSparseErrors(t *testing.T) {
	checkLowestIndexError(t, 100, 7, func(j int) bool { return j%30 == 7 })
}

// checkLowestIndexError runs a grid of jobs in which fails(j) jobs return
// an error, at widths {1, 2, 8}, and wants job lowest's error and no
// results back.
func checkLowestIndexError(t *testing.T, jobs, lowest int, fails func(j int) bool) {
	t.Helper()
	for _, w := range []int{1, 2, 8} {
		out, err := runGrid(fanOut{workers: w}, 1, jobs, func(p *EnginePool, j int, r *rng.Source) (int, error) {
			if fails(j) {
				return 0, fmt.Errorf("job %d failed", j)
			}
			return j, nil
		}, nil)
		if err == nil || err.Error() != fmt.Sprintf("job %d failed", lowest) {
			t.Errorf("workers=%d: err = %v, want job %d's", w, err, lowest)
		}
		if out != nil {
			t.Errorf("workers=%d: a failed grid returned results", w)
		}
	}
}

// TestRunGridDeterministicResultOrder: per-slot results folded in index
// order give the same floating-point sum at every width, although float
// addition is not associative.
func TestRunGridDeterministicResultOrder(t *testing.T) {
	sum := func(w int) float64 {
		res, err := runGrid(fanOut{workers: w}, 1, 1000, func(p *EnginePool, j int, r *rng.Source) (float64, error) {
			return 1.0 / float64(j+1), nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, v := range res {
			s += v
		}
		return s
	}
	serial := sum(1)
	for _, w := range []int{2, 5, 16} {
		if got := sum(w); got != serial {
			t.Fatalf("workers=%d: sum %v != serial %v", w, got, serial)
		}
	}
}

// TestRunGridPoolBalanced pins the engine-pool lifecycle on every exit
// path: whether the grid succeeds, a job fails or the caller cancels,
// every simulation drawn from the shared reservoir (warm or freshly
// built) is handed back — Released + Dropped == Acquired + Built — and
// what is idle afterwards is clean.
func TestRunGridPoolBalanced(t *testing.T) {
	loadCell := func(p *EnginePool, j int, r *rng.Source) (int, error) {
		c := cellAt(smallSaturation(), "uniform", 0.5, 0, "limited")
		if err := c.validateLoadShape(); err != nil {
			return 0, err
		}
		pt, err := loadPoint(p, &c, r)
		return pt.Delivered, err
	}
	boom := errors.New("boom")
	for _, tc := range []struct {
		name   string
		job    func(p *EnginePool, j int, r *rng.Source) (int, error)
		cancel func() func() bool
		want   error
	}{
		{name: "success", job: loadCell},
		{name: "error", want: boom, job: func(p *EnginePool, j int, r *rng.Source) (int, error) {
			if j == 3 {
				return 0, boom
			}
			return loadCell(p, j, r)
		}},
		{name: "cancel", want: ErrCanceled, job: loadCell, cancel: func() func() bool {
			var polls atomic.Int64
			return func() bool { return polls.Add(1) > 3 }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewEnginePool(1) // a cap below the worker count drops the returns of overlapping jobs
			for round := 0; round < 2; round++ {
				f := fanOut{workers: 3, pool: pool}
				if tc.cancel != nil {
					f.cancel = tc.cancel()
				}
				_, err := runGrid(f, 7, 8, tc.job, nil)
				if !errors.Is(err, tc.want) {
					t.Fatalf("round %d: err = %v, want %v", round, err, tc.want)
				}
				s := pool.Stats()
				if s.Acquired+s.Built == 0 {
					t.Fatalf("round %d: no simulation was drawn; the test lost its teeth", round)
				}
				if s.Released+s.Dropped != s.Acquired+s.Built {
					t.Fatalf("round %d: pool unbalanced: %+v", round, s)
				}
				if err := pool.VerifyClean(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
		})
	}
}

// TestNegativeEscapeParametersAreOff pins one normalisation for every load
// entry point: a negative FlightTimeout / RetryBackoff / GridlockWindow
// means "off", exactly like zero — same rows. E22 and E23 used to hand
// their cells a configuration that had skipped validateLoadShape, so a
// negative timeout reached the engine (off) and loadPoint's gridlock
// cut-short (on) raw. E22 requires its timeout and detector, leaving only
// its backoff free.
func TestNegativeEscapeParametersAreOff(t *testing.T) {
	rec := &traffic.Trace{}
	if _, err := LoadRun(LoadOptions{
		Dims: []int{6, 6}, Router: "limited", Pattern: "transpose", Rate: 0.25,
		Warmup: 16, Measure: 48, Drain: 48, NodeCapacity: 4, Seed: 3, Record: rec,
	}); err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(v int) (any, error){
		"saturation": func(v int) (any, error) {
			opt := smallSaturation()
			opt.FlightTimeout, opt.RetryBackoff, opt.GridlockWindow = v, v, v
			return SaturationSweepWorkers(opt, 3, 2)
		},
		"congestion": func(v int) (any, error) {
			opt := smallCongestionShift()
			opt.FlightTimeout, opt.RetryBackoff, opt.GridlockWindow = v, v, v
			rows, sums, err := CongestionShiftSweepWorkers(opt, 3, 2)
			return []any{rows, sums}, err
		},
		"closed-loop": func(v int) (any, error) {
			opt := DefaultClosedLoop()
			opt.Dims, opt.Windows, opt.NodeCapacity = []int{6, 6}, []int{2, 4}, 4
			opt.Warmup, opt.Measure, opt.Drain = 16, 48, 64
			opt.FlightTimeout, opt.RetryBackoff, opt.GridlockWindow = v, v, v
			return ClosedLoopSweepWorkers(opt, 3, 2)
		},
		"gridlock": func(v int) (any, error) {
			opt := smallGridlock()
			opt.RetryBackoff = v
			return GridlockSweepWorkers(opt, 3, 2)
		},
		"reliability": func(v int) (any, error) {
			// Tight buffers under heavy load with the detector armed: some
			// trials gridlock, which is where a raw negative timeout and a
			// zero one part ways.
			opt := smallReliability()
			opt.Rate, opt.NodeCapacity, opt.GridlockWindow = 0.6, 2, 8
			opt.FlightTimeout, opt.RetryBackoff = v, v
			return ReliabilitySweepWorkers(opt, 3, 2)
		},
		"replay-compare": func(v int) (any, error) {
			return ReplayCompareSweepWorkers(ReplayCompareOptions{
				Routers: []string{"limited", "dor"}, Replay: rec,
				FlightTimeout: v, GridlockWindow: v,
			}, 3, 2)
		},
		"load-run": func(v int) (any, error) {
			return LoadRun(LoadOptions{
				Dims: []int{6, 6}, Router: "limited", Pattern: "uniform", Rate: 0.5,
				Warmup: 16, Measure: 48, Drain: 64, NodeCapacity: 2, Seed: 3,
				FlightTimeout: v, RetryBackoff: v, GridlockWindow: v,
			})
		},
	} {
		zero, err := run(0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		negative, err := run(-5)
		if err != nil {
			t.Fatalf("%s (negative): %v", name, err)
		}
		if !reflect.DeepEqual(zero, negative) {
			t.Errorf("%s: negative escape parameters changed the rows\n zero     %+v\n negative %+v", name, zero, negative)
		}
	}
}

// moduleFile is one Go file of the module, parsed once for the structural
// tests below.
type moduleFile struct {
	path string // slash-separated, relative to the module root
	f    *ast.File
}

func (m moduleFile) test() bool            { return strings.HasSuffix(m.path, "_test.go") }
func (m moduleFile) under(dir string) bool { return strings.HasPrefix(m.path, dir+"/") }
func (m moduleFile) fixture() bool {
	return strings.HasPrefix(m.path, "testdata/") || strings.Contains(m.path, "/testdata/")
}

var moduleGo struct {
	once  sync.Once
	fset  *token.FileSet
	files []moduleFile
	err   error
}

// moduleFiles parses every Go file of the module once, dot directories
// skipped; each structural test picks its own subset (non-test, outside
// bench/, outside testdata/).
func moduleFiles(t *testing.T) (*token.FileSet, []moduleFile) {
	t.Helper()
	moduleGo.once.Do(func() {
		moduleGo.fset = token.NewFileSet()
		moduleGo.err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != "." && strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(moduleGo.fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			moduleGo.files = append(moduleGo.files, moduleFile{filepath.ToSlash(path), f})
			return nil
		})
	})
	if moduleGo.err != nil {
		t.Fatal(moduleGo.err)
	}
	return moduleGo.fset, moduleGo.files
}

// TestOneFanOut is the structural half of "one sweep runner", module-wide:
// runGrid's worker loop is the one place that starts goroutines to run
// work, so a hand-rolled fan-out skeleton (a command's own batch loop, a
// package's own worker pool) fails here instead of drifting. Outside
// bench/ and testdata/, every go statement in non-test Go is in rungrid.go
// or one of the two commands' servers (loadgen's debug listener, meshd's
// HTTP server).
func TestOneFanOut(t *testing.T) {
	allowed := map[string]bool{"rungrid.go": true, "cmd/loadgen/debug.go": true, "cmd/meshd/main.go": true}
	fset, files := moduleFiles(t)
	spawners := map[string]bool{}
	for _, m := range files {
		if m.test() || m.under("bench") || m.fixture() {
			continue
		}
		ast.Inspect(m.f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				spawners[m.path] = true
				if !allowed[m.path] {
					t.Errorf("%s: a go statement outside runGrid: route the work through runGrid instead of a new fan-out", fset.Position(g.Pos()))
				}
			}
			return true
		})
	}
	if !spawners["rungrid.go"] {
		t.Error("rungrid.go starts no goroutine; the walk lost its teeth")
	}
}

// TestChunkConsumers is a ratchet on internal/chunk's users: each carver or
// pool a struct keeps outside internal/chunk is one more owner of chunks
// that must earn its keep, so the count of chunk.Carver and chunk.Pool
// fields declared in non-test Go may only go down.
func TestChunkConsumers(t *testing.T) {
	const maxCarvers, maxPools = 13, 7
	fset, files := moduleFiles(t)
	count := map[string][]string{}
	for _, m := range files {
		if m.test() || m.fixture() || m.under("internal/chunk") {
			continue
		}
		ast.Inspect(m.f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				typ := field.Type
				if ix, ok := typ.(*ast.IndexExpr); ok {
					typ = ix.X
				}
				sel, ok := typ.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "chunk" {
					continue
				}
				for range max(len(field.Names), 1) {
					count[sel.Sel.Name] = append(count[sel.Sel.Name], fset.Position(field.Pos()).String())
				}
			}
			return true
		})
	}
	carvers, pools := count["Carver"], count["Pool"]
	t.Logf("%d chunk.Carver and %d chunk.Pool fields outside internal/chunk", len(carvers), len(pools))
	if len(carvers) == 0 || len(pools) == 0 {
		t.Fatal("the walk found no chunk.Carver or chunk.Pool field; it lost its teeth")
	}
	if len(carvers) > maxCarvers {
		t.Errorf("%d chunk.Carver fields, ratchet %d: %v", len(carvers), maxCarvers, carvers)
	}
	if len(pools) > maxPools {
		t.Errorf("%d chunk.Pool fields, ratchet %d: %v", len(pools), maxPools, pools)
	}
}

// TestShardResidue keeps the remains of intra-step sharding from growing
// back before the benchmark PR removes them: outside bench/ the identifier
// Shards is the two ignored option fields bench/batch.go assigns (the load
// sweeps' one options struct and LoadOptions) and nothing else — no read or
// write of them, no SetShards, no "shards" flag.
func TestShardResidue(t *testing.T) {
	fset, files := moduleFiles(t)
	var kept, stray []string
	for _, m := range files {
		if m.under("bench") {
			continue
		}
		decl := map[*ast.Ident]bool{}
		ast.Inspect(m.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if name.Name == "Shards" {
								decl[name] = true
								kept = append(kept, n.Name.Name)
							}
						}
					}
				}
			case *ast.Ident:
				if (n.Name == "Shards" || n.Name == "SetShards") && !decl[n] {
					stray = append(stray, fset.Position(n.Pos()).String())
				}
			case *ast.BasicLit:
				if n.Value == `"shards"` {
					stray = append(stray, fset.Position(n.Pos()).String())
				}
			}
			return true
		})
	}
	sort.Strings(kept)
	if want := []string{"LoadOptions", "LoadSweepOptions"}; !reflect.DeepEqual(kept, want) {
		t.Errorf("Shards is a field of %v, want exactly %v", kept, want)
	}
	if len(stray) > 0 {
		t.Errorf("sharding is gone; Shards/SetShards/\"shards\" used outside bench/ at %v", stray)
	}
}

// TestProbeReadOnly holds observation off the decision path by the
// module's import graph, which the compiler enforces: internal/probe
// imports no module package but internal/engine and internal/stats, and
// names of the engine only the Probe interface and the StepCensus value
// the engine pushes, so no recorder can reach an Engine to steer it. Every
// other non-test ObserveStep/ObserveLatency (bench's replica census
// included) may only add up what it is handed: it calls nothing through a
// selector.
func TestProbeReadOnly(t *testing.T) {
	fset, files := moduleFiles(t)
	probeFiles, observers := 0, 0
	for _, m := range files {
		if m.test() || m.fixture() {
			continue
		}
		if !m.under("internal/probe") {
			for _, decl := range m.f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Body == nil || (fn.Name.Name != "ObserveStep" && fn.Name.Name != "ObserveLatency") {
					continue
				}
				observers++
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						fun := ast.Unparen(call.Fun)
						if ix, ok := fun.(*ast.IndexExpr); ok {
							fun = ix.X
						} else if ix, ok := fun.(*ast.IndexListExpr); ok {
							fun = ix.X
						}
						if _, ok := fun.(*ast.SelectorExpr); ok {
							t.Errorf("%s: %s makes a call through a selector; an observer outside internal/probe only adds up its census", fset.Position(call.Pos()), fn.Name.Name)
						}
					}
					return true
				})
			}
			continue
		}
		probeFiles++
		engName := "" // the file's name for internal/engine
		for _, imp := range m.f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case path == "ndmesh/internal/engine":
				engName = "engine"
				if imp.Name != nil {
					engName = imp.Name.Name
				}
			case path == "ndmesh/internal/stats", path != "ndmesh" && !strings.HasPrefix(path, "ndmesh/"):
			default:
				t.Errorf("%s: internal/probe imports %s; it may import only internal/engine and internal/stats of the module", fset.Position(imp.Pos()), path)
			}
		}
		if engName == "." {
			t.Errorf("%s dot-imports internal/engine; name it through a selector", m.path)
		}
		ast.Inspect(m.f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == engName && sel.Sel.Name != "Probe" && sel.Sel.Name != "StepCensus" {
					t.Errorf("%s: internal/probe names %s.%s; it may name only the engine's Probe and StepCensus", fset.Position(sel.Pos()), engName, sel.Sel.Name)
				}
			}
			return true
		})
	}
	if probeFiles == 0 || observers == 0 {
		t.Errorf("the walk saw %d internal/probe files and %d observers outside it; it lost its teeth", probeFiles, observers)
	}
}
