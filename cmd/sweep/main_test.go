package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ndmesh"
)

var updateFixtures = flag.Bool("update-fixtures", false, "rewrite testdata/ from this tree")

// sweep runs the CLI in-process and returns its stdout.
func sweep(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("sweep %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// TestLoadExperimentsMatchLibrary holds every load experiment's -csv output
// to the library at the same seed: one line per library row (E20's summary
// rows included), in row order, with the same key and delivery columns.
func TestLoadExperimentsMatchLibrary(t *testing.T) {
	cfg := config{seed: 3, trials: 2}
	cases := []struct {
		exp  string
		cols []string
		want func() ([][]string, error)
	}{
		{"saturation", []string{"pattern", "router", "offered", "delivered"}, func() (want [][]string, err error) {
			rows, err := ndmesh.SaturationSweepWorkers(saturationOptions(cfg), cfg.seed, 0)
			for _, r := range rows {
				want = append(want, []string{r.Pattern, r.Router, fmt.Sprintf("%.2f", r.OfferedRate), fmt.Sprint(r.Delivered)})
			}
			return want, err
		}},
		{"congestion", []string{"pattern", "offered", "lim acc", "cong acc"}, func() (want [][]string, err error) {
			rows, sums, err := ndmesh.CongestionShiftSweepWorkers(congestionOptions(cfg), cfg.seed, 0)
			for _, r := range rows {
				want = append(want, []string{r.Pattern, fmt.Sprintf("%.2f", r.OfferedRate),
					fmt.Sprintf("%.3f", r.LimitedAccepted), fmt.Sprintf("%.3f", r.CongestedAccepted)})
			}
			for _, s := range sums {
				want = append(want, []string{s.Pattern, "peak",
					fmt.Sprintf("%.3f", s.LimitedSatAccepted), fmt.Sprintf("%.3f", s.CongestedSatAccepted)})
			}
			return want, err
		}},
		{"closedloop", []string{"pattern", "router", "window", "delivered"}, func() (want [][]string, err error) {
			rows, err := ndmesh.ClosedLoopSweepWorkers(closedLoopOptions(cfg), cfg.seed, 0)
			for _, r := range rows {
				want = append(want, []string{r.Pattern, r.Router, fmt.Sprint(r.Window), fmt.Sprint(r.Delivered)})
			}
			return want, err
		}},
		{"gridlock", []string{"pattern", "window", "cap", "faults", "mechanism", "delivered"}, func() (want [][]string, err error) {
			rows, err := ndmesh.GridlockSweepWorkers(gridlockOptions(cfg), cfg.seed, 0)
			for _, r := range rows {
				want = append(want, []string{r.Pattern, fmt.Sprint(r.Window), fmt.Sprint(r.Capacity),
					fmt.Sprint(r.Faults), r.Mechanism, fmt.Sprint(r.Delivered)})
			}
			return want, err
		}},
		{"reliability", []string{"pattern", "rate", "router", "trials", "delivered%"}, func() (want [][]string, err error) {
			rows, err := ndmesh.ReliabilitySweepWorkers(reliabilityOptions(cfg), cfg.seed, 0)
			for _, r := range rows {
				want = append(want, []string{r.Pattern, fmt.Sprintf("%.3f", r.FaultRate), r.Router,
					fmt.Sprint(r.Trials), fmt.Sprintf("%.3f", r.DeliveredFrac)})
			}
			return want, err
		}},
	}
	for _, c := range cases {
		t.Run(c.exp, func(t *testing.T) {
			want, err := c.want()
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimRight(sweep(t, "-exp", c.exp, "-csv", "-seed", "3", "-trials", "2"), "\n"), "\n")
			header, lines := strings.Split(lines[0], ","), lines[1:]
			if len(lines) != len(want) || len(want) == 0 {
				t.Fatalf("%d csv rows, library has %d", len(lines), len(want))
			}
			for i, line := range lines {
				cells := strings.Split(line, ",")
				for k, col := range c.cols {
					at := slices.Index(header, col)
					if at < 0 || at >= len(cells) {
						t.Fatalf("row %d: no column %q in %v", i, col, header)
					}
					if cells[at] != want[i][k] {
						t.Errorf("row %d column %q: csv %q, library %q", i, col, cells[at], want[i][k])
					}
				}
			}
		})
	}
}

// TestWorkersDoNotChangeOutput is the CLI face of the determinism contract:
// -workers is a speed knob, for a protocol and a load experiment alike.
func TestWorkersDoNotChangeOutput(t *testing.T) {
	for _, exp := range []string{"degradation", "saturation"} {
		one := sweep(t, "-exp", exp, "-trials", "4", "-workers", "1")
		two := sweep(t, "-exp", exp, "-trials", "4", "-workers", "2")
		if one != two {
			t.Errorf("%s: -workers 2 differs from -workers 1:\n%s\nvs\n%s", exp, two, one)
		}
	}
}

func TestUnknownExperimentNamesTheValidList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-exp", "saturatoin"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("unknown -exp accepted")
	}
	for _, e := range experiments {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("error %q does not name %q", err, e.name)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown -exp printed %q", stdout.String())
	}
}

// TestNegativeTrialsRejected: -trials below zero is a flag error before
// any experiment runs, for the experiments that read it and the ones that
// do not alike.
func TestNegativeTrialsRejected(t *testing.T) {
	for _, exp := range []string{"lambda", "oscillation", "theorems", "degradation", "reliability", "memory", "all"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-exp", exp, "-trials", "-3"}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "-trials -3") {
			t.Errorf("%s: error %v, want one naming -trials -3", exp, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed %q before rejecting -trials", exp, stdout.String())
		}
	}
}

// TestAllTablesGolden pins every experiment's default table: each run on
// its own at one trial per cell (-csv, seed 1) and concatenated in table
// order equals testdata/all.csv, and so does "-exp all". A change that
// moves a row regenerates the golden with -update-fixtures and says why.
func TestAllTablesGolden(t *testing.T) {
	args := []string{"-trials", "1", "-csv", "-seed", "1"}
	var each strings.Builder
	for _, e := range experiments {
		out := sweep(t, append([]string{"-exp", e.name}, args...)...)
		if strings.Count(out, "\n") < 2 {
			t.Errorf("%s printed no row: %q", e.name, out)
		}
		each.WriteString(out)
	}
	if len(experiments) != 12 {
		t.Errorf("%d experiments, want 12", len(experiments))
	}
	golden := filepath.Join("testdata", "all.csv")
	if *updateFixtures {
		if err := os.WriteFile(golden, []byte(each.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if each.String() != string(want) {
		t.Errorf("the experiments one by one differ from %s:\n%s", golden, each.String())
	}
	if all := sweep(t, append([]string{"-exp", "all"}, args...)...); all != string(want) {
		t.Errorf("-exp all differs from %s:\n%s", golden, all)
	}
}
