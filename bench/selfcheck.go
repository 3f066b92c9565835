package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// runSelfcheck runs the suite twice back to back at the same seed and prints,
// per workload and metric, both values, their relative difference, and a
// verdict: host end-to-end metrics must agree within their bound, exact
// metrics must be equal, and host per-layer metrics (which carry no bound)
// are shown for information.
func runSelfcheck(cfg config, stdout, stderr io.Writer) (bool, error) {
	cfg.workload = "all"
	var runs [2]results
	for i, name := range []string{"selfcheck-a", "selfcheck-b"} {
		c := cfg
		c.out = filepath.Join(cfg.out, name)
		fmt.Fprintf(stdout, "\n#### selfcheck run %d of 2 -> %s\n", i+1, c.out)
		if ok, err := runAll(c, stdout, stderr); err != nil {
			return false, err
		} else if !ok {
			return false, fmt.Errorf("selfcheck run %d failed its output checks", i+1)
		}
		b, err := os.ReadFile(filepath.Join(c.out, "results.json"))
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(b, &runs[i]); err != nil {
			return false, err
		}
	}
	return compareRuns(stdout, runs[0], runs[1]), nil
}

// compareRuns prints the comparison and reports whether every verdict passed.
func compareRuns(out io.Writer, a, b results) bool {
	pass := true
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		fmt.Fprintf(out, "\n== selfcheck %s\n", wa.Name)
		fmt.Fprintf(out, "  %-36s %16s %16s %9s %7s  %s\n", "metric", "run 1", "run 2", "rel diff", "bound", "verdict")
		row := func(defs []metricDef, va, vb map[string]value) {
			for _, m := range defs {
				x, y := va[m.Name].Value, vb[m.Name].Value
				diff := math.Abs(y-x) / math.Max(math.Abs(x), math.SmallestNonzeroFloat64)
				if x == y {
					diff = 0
				}
				verdict, bound := "info", "-"
				switch {
				case m.Exact:
					verdict, bound = "PASS", "exact"
					if x != y {
						verdict = "FAIL"
					}
				case m.Bound > 0:
					verdict, bound = "PASS", fmt.Sprintf("%.2f", m.Bound)
					if diff > m.Bound {
						verdict = "FAIL"
					}
				}
				if verdict == "FAIL" {
					pass = false
				}
				fmt.Fprintf(out, "  %-36s %16.6g %16.6g %8.2f%% %7s  %s\n", m.Name, x, y, diff*100, bound, verdict)
			}
		}
		row(endToEnd, wa.EndToEnd, wb.EndToEnd)
		row(modelled, wa.Modelled, wb.Modelled)
		if wa.PerLayer != nil && wb.PerLayer != nil {
			row(perLayer[len(modelled):], wa.PerLayer, wb.PerLayer)
		}
	}
	if pass {
		fmt.Fprintln(out, "\nselfcheck: PASS")
	} else {
		fmt.Fprintln(out, "\nselfcheck: FAIL")
	}
	return pass
}
