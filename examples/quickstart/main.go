// Quickstart: route a message across a 2-D mesh while a faulty block forms
// on its path, and watch the limited-global fault information steer it
// around the dangerous region without backtracking.
//
// Run with:
//
//	go run ./examples/quickstart
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
	// A 16x16 mesh; λ = 4 information rounds per routing step, so the
	// fault information outruns the message (see the lambda experiment for
	// what happens when it does not).
	sim, err := ndmesh.NewSimulation(ndmesh.Config{Dims: []int{16, 16}, Lambda: 4})
	if err != nil {
		return err
	}

	// A 2x4 block forms at step 2 from a staircase of faults, directly
	// between the source and the destination.
	for _, c := range []ndmesh.Coord{
		ndmesh.C(6, 7), ndmesh.C(7, 8), ndmesh.C(8, 7), ndmesh.C(9, 8),
	} {
		if err := sim.ScheduleFault(2, c); err != nil {
			return err
		}
	}

	src, dst := ndmesh.C(7, 2), ndmesh.C(7, 13)
	res, err := sim.Route(src, dst, "limited")
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "limited-global fault-information routing (Jiang & Wu, IPDPS 2004)")
	fmt.Fprintf(w, "mesh: %v, source %v, destination %v\n", sim.Dims(), src, dst)
	fmt.Fprintf(w, "arrived:    %v\n", res.Arrived)
	fmt.Fprintf(w, "hops:       %d (distance %d, detour %d)\n", res.Hops, res.D0, res.ExtraHops)
	fmt.Fprintf(w, "backtracks: %d\n", res.Backtracks)
	fmt.Fprintf(w, "faulty blocks now: %v\n", sim.Blocks())
	fmt.Fprintf(w, "info records stored: %d on %d of %d nodes\n",
		sim.InfoRecords(), sim.NodesWithInfo(), sim.NumNodes())
	fmt.Fprintln(w)
	fmt.Fprintln(w, "mesh after the run ('X' faulty, '#' disabled, 'o' holds block info):")
	fmt.Fprint(w, sim.Render(nil))
	return nil
}
