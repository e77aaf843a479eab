package lint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ndmesh/internal/lint"
	"ndmesh/internal/lint/linttest"
)

// The fixture suites: each analyzer's positive cases (including the
// would-have-caught-a-real-bug shapes — the Reset pooling leak and the
// struct-to-interface boxing alloc) and the sanctioned/annotated
// negatives, which must produce no findings.

func TestDeterminismFixtures(t *testing.T) {
	linttest.Run(t, lint.Determinism, "testdata/src", "determinism")
}

func TestResetCompleteFixtures(t *testing.T) {
	linttest.Run(t, lint.ResetComplete, "testdata/src", "resetcomplete")
}

func TestNoAllocFixtures(t *testing.T) {
	linttest.Run(t, lint.NoAlloc, "testdata/src", "noalloc")
}

func TestProbeReadOnlyFixtures(t *testing.T) {
	linttest.Run(t, lint.ProbeReadOnly, "testdata/src",
		"probereadonly/engine", "probereadonly/probe", "probereadonly/impl")
}

// TestRepoMeshvetClean runs the whole suite over the module — what
// `go run ./cmd/meshvet ./...` runs — so `go test ./...` alone enforces
// the contracts.
func TestRepoMeshvetClean(t *testing.T) {
	pkgs, err := lint.LoadPackages("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestNoAllocInventoryMatchesRuntimeTests pins the two halves of the
// hot-path contract to each other: the set of //meshvet:noalloc
// directives in the source must equal the union of lint.AllocTestCoverage,
// every test named there must exist, and every Test*AllocFree test in the
// repo must appear as a key.
func TestNoAllocInventoryMatchesRuntimeTests(t *testing.T) {
	directives, err := lint.NoAllocDirectives("../..")
	if err != nil {
		t.Fatal(err)
	}
	directiveSet := map[string]bool{}
	for _, d := range directives {
		directiveSet[d] = true
	}

	covered := map[string]string{} // function -> covering test
	for test, fns := range lint.AllocTestCoverage {
		for _, fn := range fns {
			if prev, dup := covered[fn]; dup {
				t.Errorf("%s is claimed by both %s and %s; attribute it once", fn, prev, test)
			}
			covered[fn] = test
		}
	}

	for _, d := range directives {
		if _, ok := covered[d]; !ok {
			t.Errorf("//meshvet:noalloc on %s has no runtime alloc assertion in lint.AllocTestCoverage", d)
		}
	}
	for fn, test := range covered {
		if !directiveSet[fn] {
			t.Errorf("lint.AllocTestCoverage[%s] lists %s, which carries no //meshvet:noalloc directive", test, fn)
		}
	}

	allocTests := scanAllocFreeTests(t, "../..")
	for test := range lint.AllocTestCoverage {
		if !allocTests[test] {
			t.Errorf("lint.AllocTestCoverage names %s, but no _test.go declares it", test)
		}
	}
	sorted := make([]string, 0, len(allocTests))
	for test := range allocTests {
		sorted = append(sorted, test)
	}
	sort.Strings(sorted)
	for _, test := range sorted {
		if _, ok := lint.AllocTestCoverage[test]; !ok {
			t.Errorf("runtime alloc assertion %s is missing from lint.AllocTestCoverage", test)
		}
	}
}

var allocTestRe = regexp.MustCompile(`func (Test\w*AllocFree)\(`)

// scanAllocFreeTests walks the module for Test*AllocFree declarations.
func scanAllocFreeTests(t *testing.T, root string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range allocTestRe.FindAllSubmatch(data, -1) {
			out[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
