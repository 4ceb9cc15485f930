package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles judges run b against baseline a, workload by workload and
// end-to-end metric by metric: both values, the change (positive in the
// metric's worse direction), the bound, and a verdict. It returns 1 when any
// metric is worse or more operations failed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err == nil {
		var b *fullResults
		if b, err = readResults(pathB); err == nil {
			return compareResults(a, b, stdout)
		}
	}
	fmt.Fprintf(stderr, "benchmark: %v\n", err)
	return 2
}

func readResults(path string) (*fullResults, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r fullResults
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict of one metric. worsePct is how much b is worse than a, in percent
// of a (negative: better). spreadPct is the wider of the two runs'
// bench.round_spread_pct: when the same code disagreed with itself by more
// than the bound, a timing inside the bound is unresolved, not unchanged.
func verdict(d metricDef, worsePct, spreadPct float64) string {
	bound := d.Bound * 100
	timing := d.Unit == "ms" || d.Unit == "ops/s"
	switch {
	case worsePct > bound:
		return "worse"
	case timing && spreadPct > bound:
		return "unresolved"
	case worsePct < -bound:
		return "better"
	}
	return "same"
}

func compareResults(a, b *fullResults, w io.Writer) int {
	exit := 0
	fmt.Fprintln(w, "change: + is worse, - is better, in percent of the first file's value")
	for _, def := range workloads {
		wa, okA := a.Workloads[def.name]
		wb, okB := b.Workloads[def.name]
		if !okA || !okB {
			fmt.Fprintf(w, "%s: missing from one file\n", def.name)
			exit = 1
			continue
		}
		spread := max(wa.PerLayer.Metrics["bench.round_spread_pct"].Value, wb.PerLayer.Metrics["bench.round_spread_pct"].Value)
		fmt.Fprintf(w, "%s (round spread %.1f%%)\n", def.name, spread)
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd.Metrics[d.Name].Value, wb.EndToEnd.Metrics[d.Name].Value
			worse := (vb - va) / va * 100
			if d.Better == "higher" {
				worse = -worse
			}
			v := verdict(d, worse, spread)
			if v == "worse" {
				exit = 1
			}
			fmt.Fprintf(w, "  %-18s %14.4f -> %14.4f %-6s %+7.2f%% (bound %4.1f%%)  %s\n",
				d.Name, va, vb, d.Unit, worse, d.Bound*100, v)
		}
		fa := float64(wa.EndToEnd.Failed) / float64(max(wa.EndToEnd.Attempted, 1))
		fb := float64(wb.EndToEnd.Failed) / float64(max(wb.EndToEnd.Attempted, 1))
		state := "same"
		if fb > fa {
			state, exit = "worse", 1
		}
		fmt.Fprintf(w, "  %-18s %14.6f -> %14.6f %-6s %s\n", "fail_ratio", fa, fb, "ratio", state)
	}
	return exit
}
