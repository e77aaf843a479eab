// ndsweep: the n-D scaling story. The same protocol stack runs unchanged
// over 2-D, 3-D, 4-D and 5-D meshes; this example grows a block in each,
// measures the convergence of block construction / identification /
// boundary distribution (a, b, c of Table 1), and routes across every mesh
// under dynamic faults. The point of the paper's n-D generalization: the
// convergence tracks the block size, not the mesh size or dimensionality.
//
// Run with:
//
//	go run ./examples/ndsweep
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"ndmesh"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the example's report to w.
func run(w io.Writer) error {
	shapes := [][]int{
		{24, 24},        // 2-D, 576 nodes
		{10, 10, 10},    // 3-D, 1000 nodes
		{6, 6, 6, 6},    // 4-D, 1296 nodes
		{5, 5, 5, 5, 5}, // 5-D, 3125 nodes
	}

	fmt.Fprintln(w, "convergence of the information constructions across dimensions")
	fmt.Fprintln(w, "(two clustered faults grow one block in each mesh; rounds, not steps)")
	fmt.Fprintf(w, "%-14s %6s %8s %8s %8s %9s %8s\n",
		"mesh", "N", "a", "b", "c", "affected", "records")
	for _, dims := range shapes {
		sim, err := ndmesh.NewSimulation(ndmesh.Config{Dims: dims, Lambda: 1})
		if err != nil {
			return err
		}
		// Two diagonal faults near the center of the mesh.
		center := make(ndmesh.Coord, len(dims))
		next := make(ndmesh.Coord, len(dims))
		for i, k := range dims {
			center[i] = k / 2
			next[i] = k/2 + 1
		}
		if err := sim.ScheduleFault(2, center); err != nil {
			return err
		}
		if err := sim.ScheduleFault(150, next); err != nil {
			return err
		}
		sim.RunSteps(320)
		sim.Stabilize()
		evs := sim.Events()
		last := evs[len(evs)-1]
		name := fmt.Sprintf("%v", dims)
		fmt.Fprintf(w, "%-14s %6d %8d %8d %8d %9d %8d\n",
			name, sim.NumNodes(), last.ARounds, last.BRounds, last.CRounds,
			last.Affected, last.RecordsAfter)
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "routing corner-to-corner under the same dynamic faults:")
	for _, dims := range shapes {
		sim, err := ndmesh.NewSimulation(ndmesh.Config{Dims: dims, Lambda: 2})
		if err != nil {
			return err
		}
		center := make(ndmesh.Coord, len(dims))
		src := make(ndmesh.Coord, len(dims))
		dst := make(ndmesh.Coord, len(dims))
		for i, k := range dims {
			center[i] = k / 2
			src[i] = 1
			dst[i] = k - 2
		}
		if err := sim.ScheduleFault(3, center); err != nil {
			return err
		}
		res, err := sim.Route(src, dst, "limited")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-14s arrived=%-5v hops=%-3d distance=%-3d detour=%d\n",
			fmt.Sprintf("%v", dims), res.Arrived, res.Hops, res.D0, res.ExtraHops)
	}
	return nil
}
