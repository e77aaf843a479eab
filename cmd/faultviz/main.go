// faultviz animates the information constructions on a 2-D mesh (or a 2-D
// slice of an n-D mesh): it injects faults, then prints the mesh after
// every few information rounds so the labeling wave, the identification
// walk and the boundary flood are visible as they spread.
//
// Examples:
//
//	faultviz -dims 14x14 -faults 4,4:5,5:9,9 -every 2
//	faultviz -dims 10x10x10 -faults 5,5,5:6,6,6 -slice 0,0,5 -every 4
//	faultviz -dims 14x14 -faults 6,6:7,7 -recover 6,6 -every 3
//	faultviz -heatmap hm.csv -metric stalls
//
// With -heatmap, faultviz instead renders a loadgen telemetry heatmap
// (see heatmap.go) and the fault-animation flags are ignored.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"ndmesh"
	"ndmesh/internal/cliutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("faultviz: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command behind main: it parses args and renders to
// stdout (flag errors and usage go to stderr), so main_test.go drives the
// CLI in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("faultviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dimsFlag  = fs.String("dims", "14x14", "mesh dimensions, e.g. 14x14 or 10x10x10")
		faultsStr = fs.String("faults", "6,6:7,7", "colon-separated fault coordinates, e.g. 4,4:5,5")
		recover   = fs.String("recover", "", "coordinate to recover after the first stabilization")
		sliceStr  = fs.String("slice", "", "fixed coordinates of the rendered slice (n components)")
		every     = fs.Int("every", 3, "render every this many rounds")
		maxRounds = fs.Int("max-rounds", 200, "stop after this many rounds")
		heatmap   = fs.String("heatmap", "", "render a loadgen heatmap CSV (mesh shape from its .manifest.json) instead of animating faults")
		metric    = fs.String("metric", "resident", "heatmap field: resident (per-node occupancy) | stalls (per-node link-stall rollup)")
		value     = fs.String("value", "total", "heatmap statistic: total (time-integrated) | peak")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *heatmap != "" {
		if !validHeatmapMetric(*metric) {
			return fmt.Errorf("unknown -metric %q (want resident | stalls)", *metric)
		}
		return renderHeatmap(stdout, *heatmap, *metric, *value, *sliceStr)
	}

	dims, err := cliutil.ParseDims(*dimsFlag)
	if err != nil {
		return err
	}
	sim, err := ndmesh.NewSimulation(ndmesh.Config{Dims: dims, Lambda: 1})
	if err != nil {
		return err
	}
	var fixed ndmesh.Coord
	if *sliceStr != "" {
		if fixed, err = cliutil.ParseCoord(*sliceStr, len(dims)); err != nil {
			return err
		}
	}

	for _, part := range strings.Split(*faultsStr, ":") {
		c, err := cliutil.ParseCoord(part, len(dims))
		if err != nil {
			return err
		}
		if err := sim.FailNow(c); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "mesh %v; faults %s\n", dims, *faultsStr)
	animate(stdout, sim, fixed, *every, *maxRounds)
	fmt.Fprintf(stdout, "blocks: %v, records: %d on %d nodes\n\n",
		sim.Blocks(), sim.InfoRecords(), sim.NodesWithInfo())

	if *recover != "" {
		c, err := cliutil.ParseCoord(*recover, len(dims))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recovering %v\n", c)
		if err := sim.RecoverNow(c); err != nil {
			return err
		}
		animate(stdout, sim, fixed, *every, *maxRounds)
		fmt.Fprintf(stdout, "blocks: %v, records: %d on %d nodes\n",
			sim.Blocks(), sim.InfoRecords(), sim.NodesWithInfo())
	}
	return nil
}

// animate renders the mesh every few information rounds until quiescence.
func animate(w io.Writer, sim *ndmesh.Simulation, fixed ndmesh.Coord, every, maxRounds int) {
	if every < 1 {
		every = 1
	}
	for round := 0; round < maxRounds; round += every {
		n := sim.StabilizeRounds(every)
		fmt.Fprintf(w, "--- after round %d ---\n", round+n)
		fmt.Fprint(w, sim.Render(fixed))
		if n < every {
			return // quiescent
		}
	}
}
