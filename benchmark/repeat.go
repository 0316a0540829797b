package main

import (
	"fmt"
	"io"
	"runtime"
)

// repeatSummary collects the reports of one workload's repeated runs and
// prints, per metric, the sample the acceptance rule is computed from:
// median, quartiles and extremes, the interquartile spread as a share of the
// median, and whether that fits the metric's bound.
type repeatSummary struct {
	workload string
	names    []string
	values   map[string][]float64
	units    map[string]string
}

func newRepeatSummary(workload string) *repeatSummary {
	return &repeatSummary{workload: workload, values: make(map[string][]float64), units: make(map[string]string)}
}

func (s *repeatSummary) add(rep report) {
	for _, name := range rep.order {
		if _, seen := s.values[name]; !seen {
			s.names = append(s.names, name)
		}
		s.values[name] = append(s.values[name], rep.metrics[name].Value)
		s.units[name] = rep.metrics[name].Unit
	}
}

func (s *repeatSummary) print(w io.Writer) {
	fmt.Fprintf(w, "repeatability of %s (nproc %d, GOMAXPROCS %d, %s)\n",
		s.workload, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rows := [][]string{{"metric", "unit", "n", "median", "q1", "q3", "min", "max", "spread", "bound", "fits"}}
	for _, name := range s.names {
		v := s.values[name]
		if len(v) < 2 {
			continue
		}
		q1, med, q3 := quartiles(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		bound, fits := "-", "-"
		if b, gated := boundOf(name); gated {
			bound = fmt.Sprintf("%.2f", b)
			fits = "yes"
			if name != "setup_s" && spread(v) > b {
				fits = "NO"
			}
		}
		g := func(x float64) string { return fmt.Sprintf("%.5g", x) }
		rows = append(rows, []string{name, s.units[name], fmt.Sprint(len(v)), g(med), g(q1), g(q3), g(lo), g(hi),
			fmt.Sprintf("%.3f", spread(v)), bound, fits})
	}
	fmt.Fprint(w, formatTable(rows))
}

// boundOf returns an end-to-end metric's regression bound.
func boundOf(name string) (float64, bool) {
	for _, m := range endToEndMetrics {
		if m.name == name {
			return m.bound, true
		}
	}
	return 0, false
}
