// Dynamic 3-D routing: the paper's home turf. A message crosses a 10x10x10
// mesh while faults keep arriving; the run compares the three fault-tolerant
// routers on identical scenarios and prints the per-occurrence convergence
// of the information constructions (a_i, b_i, c_i of Table 1).
//
// Run with:
//
//	go run ./examples/dynamic3d
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
	scenario := func() (*ndmesh.Simulation, error) {
		sim, err := ndmesh.NewSimulation(ndmesh.Config{Dims: []int{10, 10, 10}, Lambda: 2})
		if err != nil {
			return nil, err
		}
		// A growing block near the center plus two scattered faults.
		faults := []struct {
			step int
			c    ndmesh.Coord
		}{
			{2, ndmesh.C(5, 5, 5)},
			{30, ndmesh.C(5, 6, 6)}, // grows the central block
			{60, ndmesh.C(2, 7, 3)},
			{90, ndmesh.C(7, 2, 7)},
		}
		for _, f := range faults {
			if err := sim.ScheduleFault(f.step, f.c); err != nil {
				return nil, err
			}
		}
		return sim, nil
	}

	src, dst := ndmesh.C(1, 1, 1), ndmesh.C(8, 8, 8)
	fmt.Fprintln(w, "dynamic faults in a 10x10x10 mesh, routing", src, "->", dst)
	fmt.Fprintln(w)
	for _, router := range []string{"limited", "oracle", "blind"} {
		sim, err := scenario()
		if err != nil {
			return err
		}
		res, err := sim.Route(src, dst, router)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s arrived=%-5v hops=%-3d detour=%-2d backtracks=%d\n",
			router, res.Arrived, res.Hops, res.ExtraHops, res.Backtracks)
	}

	// Convergence bookkeeping from a fresh run of the same scenario.
	sim, err := scenario()
	if err != nil {
		return err
	}
	sim.RunSteps(200)
	sim.Stabilize()
	fmt.Fprintln(w)
	fmt.Fprintln(w, "per-occurrence convergence (rounds): a=labeling b=identification c=boundary")
	for _, ev := range sim.Events() {
		fmt.Fprintf(w, "  event %d at step %-3d  a=%-3d b=%-3d c=%-3d affected=%d e_max=%d\n",
			ev.Index, ev.Step, ev.ARounds, ev.BRounds, ev.CRounds, ev.Affected, ev.EMaxAfter)
	}
	fmt.Fprintf(w, "\ninfo records: %d on %d of %d nodes\n",
		sim.InfoRecords(), sim.NodesWithInfo(), sim.NumNodes())
	return nil
}
