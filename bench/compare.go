package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// side is one arm of a comparison: one results file, or a set of them
// taken back to back.
type side []results

func readSide(paths []string) (side, error) {
	var s side
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return s, err
		}
		var doc results
		if err := json.Unmarshal(data, &doc); err != nil {
			return s, fmt.Errorf("%s: %w", p, err)
		}
		s = append(s, doc)
	}
	return s, nil
}

// find returns the side's view of one end-to-end metric on one workload:
// with one file, the run's own median and quartiles over its reps; with a
// set, the median and quartiles of the runs' medians.
func (s side) find(workload, metric string) (summary, bool) {
	var runs []sample
	for _, doc := range s {
		for _, w := range doc.Workloads {
			if w.Name != workload {
				continue
			}
			for _, m := range w.EndToEnd {
				if m.Metric == metric {
					runs = append(runs, m)
				}
			}
		}
	}
	switch len(runs) {
	case 0:
		return summary{}, false
	case 1:
		m := runs[0]
		if m.N <= 1 {
			return summary{Median: m.Value, Q1: m.Value, Q3: m.Value, N: 1}, true
		}
		return summary{Median: m.Value, Q1: m.Q1, Q3: m.Q3, N: m.N}, true
	}
	vs := make([]float64, len(runs))
	for i, m := range runs {
		vs[i] = m.Value
	}
	return summarize(vs), true
}

// digest returns the workload's rows digest, or "" if the side lacks the
// workload or its runs disagree (sets taken at different seeds).
func (s side) digest(workload string) string {
	d := ""
	for _, doc := range s {
		for _, w := range doc.Workloads {
			if w.Name != workload {
				continue
			}
			if d != "" && d != w.RowsSHA256 {
				return ""
			}
			d = w.RowsSHA256
		}
	}
	return d
}

// verdict applies the regression rule to one (metric, workload) pair:
// worse is the share by which B's median is worse than A's.
func verdict(def metricDef, a, b summary) (worse float64, v string) {
	worse = ratio(b.Median-a.Median, a.Median)
	if def.better == higher {
		worse = -worse
	}
	overlap := a.Q1 <= b.Q3 && b.Q1 <= a.Q3
	switch {
	case max(a.spread(), b.spread()) > def.bound && overlap:
		return worse, "unresolved"
	case worse > def.bound:
		return worse, "worse"
	}
	return worse, "ok"
}

// compareFiles prints one row per (end-to-end metric, workload) pair and
// reports whether any was worse than its bound.
func compareFiles(w io.Writer, aPaths, bPaths []string) (anyWorse bool, err error) {
	a, err := readSide(aPaths)
	if err != nil {
		return false, err
	}
	b, err := readSide(bPaths)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-15s %-16s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "worse", "bound", "verdict")
	for _, def := range workloads {
		for _, m := range endToEnd {
			sa, okA := a.find(def.name, m.name)
			sb, okB := b.find(def.name, m.name)
			if !okA || !okB {
				continue
			}
			worse, v := verdict(m, sa, sb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-15s %-16s %12.6g %25s %12.6g %25s %+7.1f%% %5.0f%%  %s\n",
				def.name, m.name, sa.Median, fmt.Sprintf("[%.5g, %.5g]", sa.Q1, sa.Q3),
				sb.Median, fmt.Sprintf("[%.5g, %.5g]", sb.Q1, sb.Q3), 100*worse, 100*m.bound, v)
		}
		if da, db := a.digest(def.name), b.digest(def.name); da != "" && db != "" {
			same := "identical simulated statistics"
			if da != db {
				same = "DIFFERENT simulated statistics"
			}
			fmt.Fprintf(w, "%-15s %-16s %s\n", def.name, "rows_sha256", same)
		}
	}
	return anyWorse, nil
}
