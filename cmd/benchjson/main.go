// Command benchjson turns `go test -bench` output into the machine-readable
// perf-trajectory files (BENCH_*.json) the repository checks in: one record
// per benchmark with iterations, ns/op, B/op, allocs/op, and every custom
// metric (joins/s, …). Pipe the benchmark run through it:
//
//	go test -bench='BenchmarkJoin$' -benchmem -run='^$' . \
//	    | go run ./cmd/benchjson -out BENCH_control_plane.json
//
// `make bench-json` wires the hot control-plane benchmarks through exactly
// that pipeline. The benchmark output is echoed to stdout so the run stays
// readable in terminals and CI logs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when the run used -benchmem.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// OpsPerSec is derived from ns/op for trajectory comparisons.
	OpsPerSec float64 `json:"ops_per_sec"`
	// Metrics carries custom b.ReportMetric units (e.g. "joins/s").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the file layout of a BENCH_*.json.
type Report struct {
	Suite       string   `json:"suite"`
	GeneratedAt string   `json:"generated_at"`
	Goos        string   `json:"goos,omitempty"`
	Goarch      string   `json:"goarch,omitempty"`
	CPU         string   `json:"cpu,omitempty"`
	Benchmarks  []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout only)")
	suite := flag.String("suite", "control_plane", "suite name recorded in the report")
	baseline := flag.String("baseline", "", "baseline BENCH_*.json to guard throughput against")
	guard := flag.String("guard", "", "regexp of benchmark names whose joins/s the guard checks")
	maxRegress := flag.Float64("max-regress", 0.25, "maximum allowed fractional joins/s regression vs the baseline")
	memGuard := flag.String("memguard", "", "regexp of benchmark names whose B/op and allocs/op the guard checks")
	maxMemGrowth := flag.Float64("max-mem-growth", 0.25, "maximum allowed fractional B/op or allocs/op growth vs the baseline")
	deltaGuard := flag.String("deltaguard", "", "comma-separated candidate:reference benchmark pairs whose joins/s must stay within -max-delta of each other in this run")
	maxDelta := flag.Float64("max-delta", 0.05, "maximum allowed fractional joins/s shortfall of a -deltaguard candidate vs its reference")
	flag.Parse()

	report, err := parse(bufio.NewScanner(os.Stdin), *suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(report.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob)
	} else {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
	}
	if *baseline != "" && *guard != "" {
		if err := guardThroughput(report, *baseline, *guard, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if *baseline != "" && *memGuard != "" {
		if err := guardMemory(report, *baseline, *memGuard, *maxMemGrowth); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if *deltaGuard != "" {
		if err := guardDelta(report, *deltaGuard, *maxDelta); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
}

// guardDelta enforces paired-variant bounds inside one run — no baseline
// file involved, so the check is immune to machine-to-machine drift. Each
// pair reads "candidate:reference" (full sub-benchmark names, which may
// themselves contain '=' or '/'), and the candidate's joins/s must not fall
// more than the allowed fraction below the reference's. This is how the
// bench smoke pins the telemetry-on overhead of the join path.
//
// With N repetitions each variant prints N lines, in whatever order they
// arrive; the k-th line of the candidate is paired with the k-th line of
// the reference, and the guard compares the median of the N ratios with the
// bar. Fed alternating single-repetition runs (make bench-smoke runs them
// in ABBA order), the two runs of a pair are neighbours in time, so the
// ratio cancels all but the fastest drift and neither variant always runs
// first; fed one `go test -count=N` run, they are N runs apart. The median
// ignores a minority of disturbed repetitions on either side. Comparing the
// best run of each variant did neither: one lucky reference run set the bar
// for every candidate run, so unchanged code failed on a busy box. The
// median still sees a tax paid on every repetition in full: a 10% slower
// candidate reads 0.90 whatever the noise on either side. Each verdict line
// also prints the spread of the pair ratios (min, quartiles, max), so a
// failing median can be told from one that noise put under the bar.
func guardDelta(report *Report, spec string, maxDelta float64) error {
	runs := make(map[string][]float64, len(report.Benchmarks))
	for _, b := range report.Benchmarks {
		if v, ok := b.Metrics[guardedMetric]; ok {
			name := stripCPUSuffix(b.Name)
			runs[name] = append(runs[name], v)
		}
	}
	var failures []string
	for _, pair := range strings.Split(spec, ",") {
		cand, ref, ok := strings.Cut(pair, ":")
		if !ok {
			return fmt.Errorf("bad -deltaguard pair %q (want candidate:reference)", pair)
		}
		cv, rv := runs[cand], runs[ref]
		if len(cv) == 0 || len(rv) == 0 {
			return fmt.Errorf("deltaguard pair %q: missing %s metric for %q and/or %q in this run",
				pair, guardedMetric, cand, ref)
		}
		if len(cv) != len(rv) {
			return fmt.Errorf("deltaguard pair %q: %d runs of %q against %d of %q, want one per repetition",
				pair, len(cv), cand, len(rv), ref)
		}
		ratios := make([]float64, len(cv))
		for k := range cv {
			ratios[k] = cv[k] / rv[k]
		}
		ratio := median(ratios)
		lo, q1, q3, hi := spread(ratios)
		line := fmt.Sprintf("%s vs %s: median %s ratio %.3f over %d repetitions %.3f, spread min %.3f q1 %.3f q3 %.3f max %.3f (floor %.3f)",
			cand, ref, guardedMetric, ratio, len(ratios), ratios, lo, q1, q3, hi, 1-maxDelta)
		if ratio < 1-maxDelta {
			failures = append(failures, line)
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: deltaguard: %s ok\n", line)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("paired delta beyond %.0f%%:\n  %s",
			maxDelta*100, strings.Join(failures, "\n  "))
	}
	return nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), sorting a copy.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// spread returns the least value of xs, its quartiles and its greatest
// value. The quartiles are Tukey's hinges: the medians of the lower and the
// upper half, each half taking the middle value of an odd count, so five
// values read as their second and fourth.
func spread(xs []float64) (lo, q1, q3, hi float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	return s[0], median(s[:(n+1)/2]), median(s[n/2:]), s[n-1]
}

// guardedMetric is the throughput metric the regression guard compares.
const guardedMetric = "joins/s"

// stripCPUSuffix drops the trailing -N GOMAXPROCS marker go test appends to
// benchmark names, so a run on an M-core machine compares against a baseline
// generated on an N-core one.
func stripCPUSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// guardThroughput compares the fresh joins/s of every benchmark matching the
// guard pattern against the baseline report, and fails when any regresses by
// more than the allowed fraction. Benchmarks absent from the baseline (or
// carrying no joins/s in it) are skipped: new benchmarks must not fail the
// gate before the trajectory file is regenerated.
func guardThroughput(report *Report, baselinePath, guardPattern string, maxRegress float64) error {
	pat, err := regexp.Compile(guardPattern)
	if err != nil {
		return fmt.Errorf("bad -guard pattern: %w", err)
	}
	base, err := loadBaseline(baselinePath)
	if err != nil {
		return err
	}
	baseline := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		if v, ok := b.Metrics[guardedMetric]; ok {
			baseline[stripCPUSuffix(b.Name)] = v
		}
	}
	var failures []string
	checked := 0
	for _, b := range report.Benchmarks {
		name := stripCPUSuffix(b.Name)
		if !pat.MatchString(name) {
			continue
		}
		fresh, ok := b.Metrics[guardedMetric]
		if !ok {
			continue
		}
		want, ok := baseline[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: guard: %s not in baseline, skipping\n", name)
			continue
		}
		checked++
		floor := want * (1 - maxRegress)
		if fresh < floor {
			failures = append(failures, fmt.Sprintf("%s: %.0f %s, baseline %.0f (floor %.0f)",
				name, fresh, guardedMetric, want, floor))
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: guard: %s %.0f %s vs baseline %.0f ok\n",
				name, fresh, guardedMetric, want)
		}
	}
	if checked == 0 {
		return fmt.Errorf("guard %q matched no benchmark with a %s metric in both runs", guardPattern, guardedMetric)
	}
	if len(failures) > 0 {
		return fmt.Errorf("throughput regression beyond %.0f%%:\n  %s",
			maxRegress*100, strings.Join(failures, "\n  "))
	}
	return nil
}

// loadBaseline reads and parses a baseline BENCH_*.json.
func loadBaseline(path string) (*Report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(blob, &base); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	return &base, nil
}

// guardMemory compares the fresh B/op and allocs/op of every benchmark
// matching the pattern against the baseline report, and fails when either
// grows by more than the allowed fraction. Unlike joins/s — which wobbles
// with scheduler noise at short -benchtime — the allocation profile of a
// benchmark iteration is near-deterministic, so the same 25% bar catches
// much smaller real regressions (a single new alloc on a 23-alloc path is
// +4%, three are +13%, a per-viewer slice copy blows straight through).
// Benchmarks absent from the baseline or run without -benchmem are skipped.
func guardMemory(report *Report, baselinePath, guardPattern string, maxGrowth float64) error {
	pat, err := regexp.Compile(guardPattern)
	if err != nil {
		return fmt.Errorf("bad -memguard pattern: %w", err)
	}
	base, err := loadBaseline(baselinePath)
	if err != nil {
		return err
	}
	type memProfile struct{ bytes, allocs *float64 }
	baseline := make(map[string]memProfile, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[stripCPUSuffix(b.Name)] = memProfile{bytes: b.BytesPerOp, allocs: b.AllocsPerOp}
	}
	check := func(name, unit string, fresh, want *float64) (string, bool) {
		if fresh == nil || want == nil {
			return "", true
		}
		ceiling := *want * (1 + maxGrowth)
		if *fresh > ceiling {
			return fmt.Sprintf("%s: %.0f %s, baseline %.0f (ceiling %.0f)",
				name, *fresh, unit, *want, ceiling), false
		}
		fmt.Fprintf(os.Stderr, "benchjson: memguard: %s %.0f %s vs baseline %.0f ok\n",
			name, *fresh, unit, *want)
		return "", true
	}
	var failures []string
	checked := 0
	for _, b := range report.Benchmarks {
		name := stripCPUSuffix(b.Name)
		if !pat.MatchString(name) {
			continue
		}
		want, ok := baseline[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: memguard: %s not in baseline, skipping\n", name)
			continue
		}
		if b.BytesPerOp == nil && b.AllocsPerOp == nil {
			continue
		}
		if msg, ok := check(name, "B/op", b.BytesPerOp, want.bytes); !ok {
			failures = append(failures, msg)
		} else if msg == "" && b.BytesPerOp != nil && want.bytes != nil {
			checked++
		}
		if msg, ok := check(name, "allocs/op", b.AllocsPerOp, want.allocs); !ok {
			failures = append(failures, msg)
		} else if msg == "" && b.AllocsPerOp != nil && want.allocs != nil {
			checked++
		}
	}
	if checked == 0 && len(failures) == 0 {
		return fmt.Errorf("memguard %q matched no benchmark with B/op or allocs/op in both runs", guardPattern)
	}
	if len(failures) > 0 {
		return fmt.Errorf("memory growth beyond %.0f%%:\n  %s",
			maxGrowth*100, strings.Join(failures, "\n  "))
	}
	return nil
}

// parse consumes `go test -bench` output, echoing every line, and collects
// the benchmark results and platform header lines.
func parse(sc *bufio.Scanner, suite string) (*Report, error) {
	report := &Report{
		Suite:       suite,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			report.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			report.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseLine(line)
			if ok {
				report.Benchmarks = append(report.Benchmarks, res)
			}
		case strings.HasPrefix(line, "FAIL"), strings.HasPrefix(line, "--- FAIL"):
			return nil, fmt.Errorf("benchmark run failed: %s", line)
		}
	}
	return report, sc.Err()
}

// parseLine parses one result line of the standard benchmark format:
//
//	BenchmarkJoin  60835  40313 ns/op  24806 joins/s  3275 B/op  29 allocs/op
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		value, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = value
			if value > 0 {
				res.OpsPerSec = 1e9 / value
			}
		case "B/op":
			v := value
			res.BytesPerOp = &v
		case "allocs/op":
			v := value
			res.AllocsPerOp = &v
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = value
		}
	}
	return res, res.NsPerOp > 0
}
