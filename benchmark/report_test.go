package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	rep := report{metrics: map[string]metric{}}
	rep.attempted, rep.failed = 12, 0
	rep.set("latency_ms", 1.2034, "ms")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(rep.resultLine()), &got); err != nil {
		t.Fatalf("result line is not JSON: %v", err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	if len(keys) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("result line keys = %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]any{"latency_ms": {"value": 1.2034, "unit": "ms"}}
	if !reflect.DeepEqual(metrics, want) {
		t.Errorf("metrics = %v, want %v", metrics, want)
	}
	if string(got["correct"]) != "true" {
		t.Errorf("a report with no problems must be correct")
	}
	rep.fatal("a check failed")
	if err := json.Unmarshal([]byte(rep.resultLine()), &got); err != nil || string(got["correct"]) != "false" {
		t.Errorf("a report with a problem must not be correct: %s", rep.resultLine())
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json, which the driver
// reads, equal to the tables the program prints from.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	all := specs(false)
	if len(doc.Workloads) != len(all) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(all))
	}
	for i, s := range all {
		if doc.Workloads[i].Name != s.name || doc.Workloads[i].Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, s.name, s.why)
		}
		if len(s.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", s.name, len(s.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(doc.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		d := doc.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, d, m)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	if len(doc.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(doc.PerLayer), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	for i, m := range perLayerMetrics {
		if d := doc.PerLayer[i]; d.Name != m.name || d.Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, d, m)
		}
		seen[m.name] = true
	}
	for _, m := range endToEndMetrics {
		if seen[m.name] {
			t.Errorf("%s is both an end-to-end and a per-layer metric", m.name)
		}
	}
}
