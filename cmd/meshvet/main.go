// Command meshvet runs the repo's static contract suite (internal/lint):
// determinism, resetcomplete and noalloc. `meshvet ./...`
// (or `go run ./cmd/meshvet ./...`) loads, type-checks and analyzes the
// named packages and exits 1 on findings. It is a thin wrapper: the same
// loader and analyzers run over the whole module inside tier-1, as
// TestRepoMeshvetClean of `go test ./internal/lint`.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"ndmesh/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run loads and analyzes the named package patterns (default ./...) and
// returns the exit code: 0 clean, 1 on findings or a load error, 2 on a
// flag (printing the usage).
func run(patterns []string, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fmt.Fprintf(stderr, "usage: meshvet [packages]\n\nanalyzers:\n")
			for _, a := range lint.All() {
				fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
			}
			return 2
		}
	}
	pkgs, err := lint.LoadPackages(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "meshvet: %v\n", err)
		return 1
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		fmt.Fprintf(stderr, "meshvet: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
