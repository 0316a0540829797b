package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: telecast
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkJoin 	   60835	     40313 ns/op	     24806 joins/s	    3275 B/op	      29 allocs/op
BenchmarkViewChange 	   71282	     33474 ns/op	    5074 B/op	      39 allocs/op
BenchmarkConcurrentJoin/regions=16 	      12	  95944021 ns/op	    333354 joins/s
PASS
ok  	telecast	3.047s
`

func TestParse(t *testing.T) {
	report, err := parse(bufio.NewScanner(strings.NewReader(sample)), "control_plane")
	if err != nil {
		t.Fatal(err)
	}
	if report.Goos != "linux" || report.Goarch != "amd64" {
		t.Fatalf("platform = %s/%s", report.Goos, report.Goarch)
	}
	if len(report.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(report.Benchmarks))
	}
	join := report.Benchmarks[0]
	if join.Name != "BenchmarkJoin" || join.Iterations != 60835 || join.NsPerOp != 40313 {
		t.Fatalf("join = %+v", join)
	}
	if join.Metrics["joins/s"] != 24806 {
		t.Fatalf("joins/s = %v", join.Metrics["joins/s"])
	}
	if join.BytesPerOp == nil || *join.BytesPerOp != 3275 {
		t.Fatalf("B/op = %v", join.BytesPerOp)
	}
	if join.AllocsPerOp == nil || *join.AllocsPerOp != 29 {
		t.Fatalf("allocs/op = %v", join.AllocsPerOp)
	}
	if got := report.Benchmarks[2].Name; got != "BenchmarkConcurrentJoin/regions=16" {
		t.Fatalf("sub-benchmark name = %s", got)
	}
	if report.Benchmarks[1].Metrics != nil {
		t.Fatalf("view change should have no custom metrics: %v", report.Benchmarks[1].Metrics)
	}
}

func TestParseFailsOnFailedRun(t *testing.T) {
	in := "BenchmarkJoin 	 10 	 100 ns/op\n--- FAIL: TestSomething\nFAIL\n"
	if _, err := parse(bufio.NewScanner(strings.NewReader(in)), "s"); err == nil {
		t.Fatal("FAIL line not surfaced as an error")
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkBroken",
		"BenchmarkBroken abc 1 ns/op",
		"BenchmarkBroken 10 xyz ns/op",
	} {
		if _, ok := parseLine(line); ok {
			t.Fatalf("accepted %q", line)
		}
	}
}

func guardReport(names []string, joins []float64) *Report {
	r := &Report{Suite: "s"}
	for i, name := range names {
		r.Benchmarks = append(r.Benchmarks, Result{
			Name:    name,
			NsPerOp: 1,
			Metrics: map[string]float64{"joins/s": joins[i]},
		})
	}
	return r
}

func writeBaseline(t *testing.T, r *Report) string {
	t.Helper()
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGuardThroughput(t *testing.T) {
	names := []string{"BenchmarkConcurrentJoin/regions=4-4", "BenchmarkWorkloadParallel-4"}
	base := writeBaseline(t, guardReport(names, []float64{100000, 30000}))
	// The fresh run carries a different GOMAXPROCS suffix: names must still
	// match after the -N marker is stripped.
	fresh := []string{"BenchmarkConcurrentJoin/regions=4-8", "BenchmarkWorkloadParallel-8"}

	// Within the allowed regression: passes.
	ok := guardReport(fresh, []float64{80000, 29000})
	if err := guardThroughput(ok, base, "BenchmarkConcurrentJoin/|BenchmarkWorkloadParallel$", 0.25); err != nil {
		t.Fatalf("in-bounds run failed the guard: %v", err)
	}
	// Past the floor: fails and names the benchmark.
	bad := guardReport(fresh, []float64{60000, 29000})
	err := guardThroughput(bad, base, "BenchmarkConcurrentJoin/|BenchmarkWorkloadParallel$", 0.25)
	if err == nil {
		t.Fatal("25%+ regression passed the guard")
	}
	if !strings.Contains(err.Error(), "BenchmarkConcurrentJoin/regions=4") {
		t.Fatalf("failure does not name the regressed benchmark: %v", err)
	}
}

func TestGuardSkipsBenchmarksMissingFromBaseline(t *testing.T) {
	base := writeBaseline(t, guardReport([]string{"BenchmarkWorkloadParallel-1"}, []float64{30000}))
	fresh := guardReport(
		[]string{"BenchmarkWorkloadParallel-4", "BenchmarkConcurrentJoin/regions=64-4"},
		[]float64{31000, 1},
	)
	if err := guardThroughput(fresh, base, "BenchmarkConcurrentJoin/|BenchmarkWorkloadParallel$", 0.25); err != nil {
		t.Fatalf("new benchmark absent from the baseline failed the guard: %v", err)
	}
}

func memReport(names []string, bytesPerOp, allocsPerOp []float64) *Report {
	r := &Report{Suite: "s"}
	for i, name := range names {
		b, a := bytesPerOp[i], allocsPerOp[i]
		r.Benchmarks = append(r.Benchmarks, Result{Name: name, NsPerOp: 1, BytesPerOp: &b, AllocsPerOp: &a})
	}
	return r
}

func TestGuardMemory(t *testing.T) {
	base := writeBaseline(t, memReport(
		[]string{"BenchmarkJoin-4", "BenchmarkFootprint/100k-4"},
		[]float64{3000, 2500}, []float64{29, 22}))
	fresh := []string{"BenchmarkJoin-8", "BenchmarkFootprint/100k-8"}

	// Within the allowed growth on both axes: passes.
	ok := memReport(fresh, []float64{3400, 2600}, []float64{30, 22})
	if err := guardMemory(ok, base, "BenchmarkJoin$|BenchmarkFootprint/", 0.25); err != nil {
		t.Fatalf("in-bounds run failed the memguard: %v", err)
	}
	// allocs/op past the ceiling: fails and names benchmark and unit.
	badAllocs := memReport(fresh, []float64{3000, 2500}, []float64{40, 22})
	err := guardMemory(badAllocs, base, "BenchmarkJoin$|BenchmarkFootprint/", 0.25)
	if err == nil {
		t.Fatal("25%+ allocs/op growth passed the memguard")
	}
	if !strings.Contains(err.Error(), "BenchmarkJoin") || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("failure does not name benchmark and unit: %v", err)
	}
	// B/op past the ceiling alone also fails.
	badBytes := memReport(fresh, []float64{3000, 4000}, []float64{29, 22})
	if err := guardMemory(badBytes, base, "BenchmarkJoin$|BenchmarkFootprint/", 0.25); err == nil {
		t.Fatal("25%+ B/op growth passed the memguard")
	}
}

func TestGuardMemorySkipsMissingData(t *testing.T) {
	// Baseline without memory columns (run without -benchmem): skipped, and
	// with nothing checked the guard must fail loudly.
	base := writeBaseline(t, guardReport([]string{"BenchmarkJoin-1"}, []float64{1000}))
	fresh := memReport([]string{"BenchmarkJoin-4"}, []float64{9999}, []float64{999})
	if err := guardMemory(fresh, base, "BenchmarkJoin$", 0.25); err == nil {
		t.Fatal("memguard with no comparable data must fail rather than silently pass")
	}
	// A benchmark new to the baseline is skipped while others are checked.
	base = writeBaseline(t, memReport([]string{"BenchmarkJoin-1"}, []float64{3000}, []float64{29}))
	fresh = memReport([]string{"BenchmarkJoin-4", "BenchmarkFootprint/100k-4"},
		[]float64{3000, 9999}, []float64{29, 999})
	if err := guardMemory(fresh, base, "BenchmarkJoin$|BenchmarkFootprint/", 0.25); err != nil {
		t.Fatalf("new benchmark absent from the baseline failed the memguard: %v", err)
	}
}

func TestGuardFailsWhenNothingChecked(t *testing.T) {
	base := writeBaseline(t, guardReport([]string{"BenchmarkJoin"}, []float64{1000}))
	fresh := guardReport([]string{"BenchmarkJoin"}, []float64{1000})
	if err := guardThroughput(fresh, base, "BenchmarkNoSuch", 0.25); err == nil {
		t.Fatal("guard matching nothing must fail rather than silently pass")
	}
}

// deltaReport lists each variant's -count repetitions in the order go test
// prints them: every run of the first sub-benchmark, then every run of the
// second.
func deltaReport(off, on []float64) *Report {
	r := &Report{Suite: "s"}
	for _, v := range off {
		r.Benchmarks = append(r.Benchmarks, Result{Name: "BenchmarkJoin/telemetry=off-2", NsPerOp: 1,
			Metrics: map[string]float64{"joins/s": v}})
	}
	for _, v := range on {
		r.Benchmarks = append(r.Benchmarks, Result{Name: "BenchmarkJoin/telemetry=on-2", NsPerOp: 1,
			Metrics: map[string]float64{"joins/s": v}})
	}
	return r
}

const telPair = "BenchmarkJoin/telemetry=on:BenchmarkJoin/telemetry=off"

// One outlier reference run must not fail a candidate whose paired ratios
// sit within the bar. Best-of-5 read 49 600 against 62 000 here (−20%).
func TestGuardDeltaIgnoresOneOutlierRun(t *testing.T) {
	off := []float64{50000, 50400, 62000, 49800, 50100}
	on := []float64{49000, 49600, 49500, 48800, 49300}
	if err := guardDelta(deltaReport(off, on), telPair, 0.05); err != nil {
		t.Fatalf("one outlier off-run failed the deltaguard: %v", err)
	}
}

// A tax the candidate pays on every repetition fails, however the runs
// scatter between repetitions, and even with one lucky candidate run.
func TestGuardDeltaFailsRealTax(t *testing.T) {
	off := []float64{50000, 58000, 46000, 61000, 52000}
	on := make([]float64, len(off))
	for i, v := range off {
		on[i] = 0.9 * v
	}
	on[1] = 1.2 * off[1]
	err := guardDelta(deltaReport(off, on), telPair, 0.05)
	if err == nil {
		t.Fatal("a 10% telemetry tax passed the deltaguard")
	}
	if !strings.Contains(err.Error(), "telemetry=on") || !strings.Contains(err.Error(), "0.900") {
		t.Fatalf("failure does not name the pair and its median ratio: %v", err)
	}
}

func TestGuardDeltaRejectsUnpairedRuns(t *testing.T) {
	if err := guardDelta(deltaReport([]float64{1, 1, 1}, []float64{1, 1}), telPair, 0.05); err == nil {
		t.Fatal("unequal repetition counts accepted")
	}
	if err := guardDelta(deltaReport([]float64{1}, nil), telPair, 0.05); err == nil {
		t.Fatal("missing candidate accepted")
	}
	if err := guardDelta(deltaReport([]float64{1}, []float64{1}), "no-colon", 0.05); err == nil {
		t.Fatal("malformed pair accepted")
	}
}
