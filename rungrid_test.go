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

// TestRunGridHooks pins the done hook and the progress tick: done fires
// exactly once per job, after the job's slot holds its final value, and
// progress counts up to (jobs, jobs).
func TestRunGridHooks(t *testing.T) {
	const jobs = 23
	var mu sync.Mutex
	seen := make(map[int]uint64)
	var ticks []int
	out, err := runGrid(fanOut{workers: 4, progress: func(done, total int) {
		if total != jobs {
			t.Errorf("progress total = %d, want %d", total, jobs)
		}
		mu.Lock()
		ticks = append(ticks, done)
		mu.Unlock()
	}}, 5, jobs, gridDraw, func(out []uint64, j int) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := seen[j]; dup {
			t.Errorf("done fired twice for job %d", j)
		}
		seen[j] = out[j]
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range out {
		if got, ok := seen[j]; !ok || got != v {
			t.Errorf("job %d: done saw %d (fired %v), returned slice holds %d", j, got, ok, v)
		}
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

// TestRunGridLowestIndexError: of several failing jobs the error reported
// is the lowest index's, whatever order the workers hit them in, and no
// result slice comes back.
func TestRunGridLowestIndexError(t *testing.T) {
	const k = 5
	for _, w := range []int{1, 2, 8} {
		out, err := runGrid(fanOut{workers: w}, 1, 40, func(p *EnginePool, j int, r *rng.Source) (int, error) {
			if j >= k && j%2 == 1 {
				return 0, fmt.Errorf("job %d failed", j)
			}
			return j, nil
		}, nil)
		if err == nil || err.Error() != fmt.Sprintf("job %d failed", k) {
			t.Errorf("workers=%d: err = %v, want job %d's", w, err, k)
		}
		if out != nil {
			t.Errorf("workers=%d: a failed grid returned results", w)
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
		opt := smallSaturation()
		if err := opt.validateLoadShape(); err != nil {
			return 0, err
		}
		pt, err := opt.loadPoint(p, workload{pattern: "uniform", rate: 0.5}, "limited", r)
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
			return ReplayCompareSweepWorkers(LoadOptions{
				Replay: rec, Seed: 3,
				FlightTimeout: v, RetryBackoff: v, GridlockWindow: v,
			}, []string{"limited", "dor"}, 2)
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

// TestOneFanOut is the structural half of "one sweep runner", module-wide:
// par.For is named in exactly one Go file outside bench/ — runGrid's — so a
// hand-rolled fan-out skeleton (a command's own batch loop included) fails
// here instead of drifting. Files are matched by the name they import
// internal/par under, so an aliased import is caught too.
func TestOneFanOut(t *testing.T) {
	fset := token.NewFileSet()
	var callers []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		names := map[string]bool{}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"ndmesh/internal/par"` {
				if imp.Name != nil {
					names[imp.Name.Name] = true
				} else {
					names["par"] = true
				}
			}
		}
		if len(names) == 0 {
			return nil
		}
		calls := false
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "For" {
				if pkg, ok := sel.X.(*ast.Ident); ok && names[pkg.Name] {
					calls = true
				}
			}
			return true
		})
		if calls {
			callers = append(callers, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(callers)
	if want := []string{"rungrid.go"}; !reflect.DeepEqual(callers, want) {
		t.Errorf("par.For is called from %v, want exactly %v: route a sweep through runGrid instead of a new fan-out", callers, want)
	}
}

// TestShardResidue keeps the remains of intra-step sharding from growing
// back before the benchmark PR removes them: outside bench/ the identifier
// Shards is the two ignored option fields bench/batch.go assigns (the load
// sweeps' one options struct and LoadOptions) and nothing else — no read or
// write of them, no SetShards, no "shards" flag.
func TestShardResidue(t *testing.T) {
	fset := token.NewFileSet()
	var kept, stray []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		decl := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(kept)
	if want := []string{"LoadOptions", "LoadSweepOptions"}; !reflect.DeepEqual(kept, want) {
		t.Errorf("Shards is a field of %v, want exactly %v", kept, want)
	}
	if len(stray) > 0 {
		t.Errorf("sharding is gone; Shards/SetShards/\"shards\" used outside bench/ at %v", stray)
	}
}
