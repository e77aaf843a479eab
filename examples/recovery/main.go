// Recovery: the paper's Figure 4 scenario run through the full information
// model. A 3-D block forms, a node recovers (rule 5 of Algorithm 1), the
// clean wave shrinks the block, the old boundary information is deleted and
// the new block's information constructed — all hop-by-hop. The example
// prints the status evolution of the key nodes and the information
// turnover, then demonstrates Theorem 1: a routing running across the
// recovery stays optimal.
//
// Run with:
//
//	go run ./examples/recovery
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
	sim, err := ndmesh.NewSimulation(ndmesh.Config{Dims: []int{10, 10, 10}, Lambda: 1})
	if err != nil {
		return err
	}

	// Figure 1's faults: block [3:5, 5:6, 3:4].
	for _, c := range []ndmesh.Coord{
		ndmesh.C(3, 5, 4), ndmesh.C(4, 5, 4), ndmesh.C(5, 5, 3), ndmesh.C(3, 6, 3),
	} {
		if err := sim.FailNow(c); err != nil {
			return err
		}
	}
	rounds := sim.Stabilize()
	fmt.Fprintf(w, "block constructed in %d rounds: %v\n", rounds, sim.Blocks())
	fmt.Fprintf(w, "records before recovery: %d on %d nodes\n\n", sim.InfoRecords(), sim.NodesWithInfo())

	// Figure 4: (5,5,3) recovers.
	fmt.Fprintln(w, "recovering (5,5,3)...")
	if err := sim.RecoverNow(ndmesh.C(5, 5, 3)); err != nil {
		return err
	}
	rounds = sim.Stabilize()
	fmt.Fprintf(w, "reconstruction settled in %d rounds: %v\n", rounds, sim.Blocks())
	fmt.Fprintf(w, "records after recovery: %d on %d nodes\n\n", sim.InfoRecords(), sim.NodesWithInfo())

	// The z=3 slice before/after tells the story visually.
	fmt.Fprintln(w, "slice z=3 after recovery ('X' faulty, '#' disabled, 'o' holds info):")
	fmt.Fprint(w, sim.Render(ndmesh.C(0, 0, 3)))

	// Theorem 1: a routing crossing the region during a recovery stays
	// minimal. Fresh simulation: block + in-flight recovery + routing.
	sim2, err := ndmesh.NewSimulation(ndmesh.Config{Dims: []int{10, 10, 10}, Lambda: 2})
	if err != nil {
		return err
	}
	for _, c := range []ndmesh.Coord{
		ndmesh.C(3, 5, 4), ndmesh.C(4, 5, 4), ndmesh.C(5, 5, 3), ndmesh.C(3, 6, 3),
	} {
		if err := sim2.FailNow(c); err != nil {
			return err
		}
	}
	sim2.Stabilize()
	if err := sim2.ScheduleRecovery(3, ndmesh.C(5, 5, 3)); err != nil {
		return err
	}
	src, dst := ndmesh.C(1, 2, 1), ndmesh.C(8, 8, 8)
	res, err := sim2.Route(src, dst, "limited")
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Theorem 1 check: routing %v -> %v during recovery:\n", src, dst)
	fmt.Fprintf(w, "  arrived=%v hops=%d distance=%d detour=%d backtracks=%d\n",
		res.Arrived, res.Hops, res.D0, res.ExtraHops, res.Backtracks)
	if res.ExtraHops == 0 {
		fmt.Fprintln(w, "  optimal: the recovery constructions did not disturb the routing")
	}
	return nil
}
