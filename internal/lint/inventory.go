package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
)

// AllocTestCoverage is the contract between the static and runtime halves
// of the hot-path allocation story: it maps every runtime alloc-assertion
// test (Test*AllocFree, using testing.AllocsPerRun) to the
// //meshvet:noalloc-annotated functions its hot loop exercises. The
// inventory test asserts this map stays one-for-one with reality in both
// directions — every directive is runtime-asserted by a named test, and
// every alloc-assertion test in the repo appears here — so a new
// annotation without a runtime assertion (or the reverse) fails the
// build, not a review.
var AllocTestCoverage = map[string][]string{
	// The contention step: arbitration, gating, the Limited and Blind
	// decide paths (classify: three masks over the mesh's open set), the
	// kept decision of a stalled flight and its (mesh, store) key,
	// commit/traversal, harvest, and the census fold-in.
	"TestContentionStepAllocFree": {
		"ndmesh/internal/engine.Engine.Step",
		"ndmesh/internal/engine.Engine.DetachDone",
		"ndmesh/internal/engine.Engine.gate",
		"ndmesh/internal/engine.contention.deny",
		"ndmesh/internal/engine.StepCensus.observe",
		"ndmesh/internal/route.AdvanceGated",
		"ndmesh/internal/route.Message.beginStep",
		"ndmesh/internal/route.Message.keeps",
		"ndmesh/internal/route.stateKey",
		"ndmesh/internal/route.loadOblivious",
		"ndmesh/internal/info.Store.Version",
		"ndmesh/internal/route.commitDecision",
		"ndmesh/internal/route.Limited.Decide",
		"ndmesh/internal/route.Blind.Decide",
		"ndmesh/internal/route.algorithm3",
		"ndmesh/internal/route.classify",
	},
	// The header's used-direction table, path stack and toward set through
	// growth, backtracking and re-entry: a recycled message repeats a walk
	// over hundreds of nodes inside the capacity its first flight left
	// behind.
	"TestRecycledMessageAllocFree": {
		"ndmesh/internal/route.Message.applyMove",
		"ndmesh/internal/route.Message.applyBacktrack",
		"ndmesh/internal/route.Message.retoward",
		"ndmesh/internal/route.Message.find",
		"ndmesh/internal/route.Message.enter",
	},
	// The load-adaptive decide path.
	"TestCongestedStepAllocFree": {
		"ndmesh/internal/route.Congested.Decide",
	},
	// Flight timeouts ride on DOR head-on collisions.
	"TestTimeoutStepAllocFree": {
		"ndmesh/internal/route.DOR.Decide",
	},
	// A full fault/recovery schedule applied through reused trials,
	// plus the information plane riding every step of it: identification
	// runs cycling through their free lists, the floods' deposits,
	// cancellations and merges, the record store's interned block ids, and
	// every relabel flipping its neighbors' open-set bits.
	"TestFaultProcessStepAllocFree": {
		"ndmesh/internal/engine.Engine.applyEvent",
		"ndmesh/internal/mesh.Mesh.SetStatus",
		"ndmesh/internal/ident.Protocol.Round",
		"ndmesh/internal/ident.Protocol.initiate",
		"ndmesh/internal/ident.Protocol.advanceEdge",
		"ndmesh/internal/ident.Protocol.advanceRing",
		"ndmesh/internal/ident.Protocol.advanceCollect",
		"ndmesh/internal/ident.Protocol.getRun",
		"ndmesh/internal/ident.Protocol.getSub",
		"ndmesh/internal/ident.Protocol.getWalker",
		"ndmesh/internal/boundary.Protocol.Round",
		"ndmesh/internal/boundary.Protocol.roundOne",
		"ndmesh/internal/info.Store.Intern",
		"ndmesh/internal/info.Store.Add",
		"ndmesh/internal/info.Store.Remove",
		"ndmesh/internal/info.Store.Has",
	},
	// A cancel-heavy storm replayed on a warm model: the cancellations'
	// tombstones, the deposits they stop and the expiry of both.
	"TestCancelHeavyRoundsAllocFree": {
		"ndmesh/internal/boundary.Protocol.entomb",
		"ndmesh/internal/boundary.Protocol.findTomb",
		"ndmesh/internal/boundary.Protocol.outrun",
		"ndmesh/internal/boundary.Protocol.drop",
		"ndmesh/internal/boundary.Protocol.expire",
	},
	// The closed-loop emit/release cycle.
	"TestClosedLoopStepAllocFree": {
		"ndmesh/internal/traffic.ClosedLoop.Step",
		"ndmesh/internal/traffic.ClosedLoop.Release",
	},
	// The timeout-retry escape cycle and its census note.
	"TestEscapeClosedLoopStepAllocFree": {
		"ndmesh/internal/traffic.ClosedLoop.Timeout",
		"ndmesh/internal/traffic.backoffDelay",
		"ndmesh/internal/engine.Engine.NoteRetried",
	},
	// The probe fan-out: census flush plus every observer's fold.
	"TestProbedStepAllocFree": {
		"ndmesh/internal/engine.Engine.FlushCensus",
		"ndmesh/internal/probe.Set.ObserveStep",
		"ndmesh/internal/probe.Set.ObserveLatency",
		"ndmesh/internal/probe.TimeSeries.ObserveStep",
		"ndmesh/internal/probe.Heatmap.ObserveStep",
		"ndmesh/internal/probe.LatencyHist.ObserveLatency",
		"ndmesh/internal/probe.Snapshot.ObserveStep",
	},
	// The open-loop emit path.
	"TestGeneratorStepAllocFree": {
		"ndmesh/internal/traffic.Generator.Step",
	},
	// The latency histogram's hot Add.
	"TestLogHistAddAllocFree": {
		"ndmesh/internal/stats.LogHistogram.Add",
	},
	// Extending a flood's region: the one placement enumerator.
	"TestPlacementEnumeratorAllocFree": {
		"ndmesh/internal/boundary.markPlacement",
		"ndmesh/internal/boundary.markBox",
	},
	// The information plane's per-round refill/Clear of a node set.
	"TestNodeSetAllocFree": {
		"ndmesh/internal/grid.NodeSet.Add",
		"ndmesh/internal/grid.NodeSet.Clear",
	},
}

// NoAllocDirectives scans the module rooted at dir and returns the sorted
// fully-qualified names ("pkgpath.Recv.Func" or "pkgpath.Func") of every
// function annotated //meshvet:noalloc in non-test code.
func NoAllocDirectives(dir string) ([]string, error) {
	cmd := exec.Command("go", "list", "-json=Dir,ImportPath,GoFiles", "./...")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var names []string
	fset := token.NewFileSet()
	dec := json.NewDecoder(&stdout)
	for {
		var p struct {
			Dir        string
			ImportPath string
			GoFiles    []string
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", name, err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !FuncDirective(fn, "noalloc") {
					continue
				}
				qual := p.ImportPath + "."
				if recv := recvTypeString(fn); recv != "" {
					qual += recv + "."
				}
				names = append(names, qual+fn.Name.Name)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// recvTypeString returns the receiver's base type name from the AST, or
// "" for a plain function.
func recvTypeString(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
