package main

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// checkReport fails unless a run was correct and printed exactly the named
// metrics.
func checkReport(t *testing.T, rep report, names []string) {
	t.Helper()
	for _, p := range rep.problems {
		t.Errorf("%s: check failed: %s", rep.workload, p)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Errorf("%s: attempted %d, failed %d", rep.workload, rep.attempted, rep.failed)
	}
	if len(rep.metrics) != len(names) {
		t.Errorf("%s: printed %d metrics, want %d: %v", rep.workload, len(rep.metrics), len(names), sortedNames(rep.metrics))
	}
	for _, n := range names {
		if _, ok := rep.metrics[n]; !ok {
			t.Errorf("%s: metric %s missing", rep.workload, n)
		}
	}
}

func findSpec(name string, smoke bool) (spec, bool) {
	for _, s := range specs(smoke) {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func endToEndNames() (names []string) {
	for _, m := range endToEndMetrics {
		names = append(names, m.name)
	}
	return names
}

func perLayerNames() (names []string) {
	for _, m := range perLayerMetrics {
		names = append(names, m.name)
	}
	return names
}

// The in-process workload needs no child, so its smoke runs in the default
// test tier: one end-to-end pass and one traced pass at a twentieth of the
// audience.
func TestSmokeDeepLocalSingle(t *testing.T) {
	s, ok := findSpec("deep.local-single", true)
	if !ok {
		t.Fatal("deep.local-single is gone")
	}
	rep := runE2E(context.Background(), s, 1, 300*time.Millisecond, "")
	checkReport(t, rep, endToEndNames())
	for _, n := range endToEndNames() {
		if rep.metrics[n].Value <= 0 {
			t.Errorf("%s = %v on the smoke run, want a positive number", n, rep.metrics[n].Value)
		}
	}

	out := t.TempDir()
	rep = runTraced(context.Background(), s, 1, 800*time.Millisecond, "", out)
	checkReport(t, rep, perLayerNames())
	if rep.table == "" {
		t.Error("the traced run printed no table")
	}
	for _, n := range []string{"session_self_us_per_op", "overlay_us_per_join", "heap_bytes_per_viewer", "tree_depth_mean", "validate_clean"} {
		if rep.metrics[n].Value <= 0 {
			t.Errorf("%s = %v on the traced smoke run, want a positive number", n, rep.metrics[n].Value)
		}
	}
	if st, err := os.Stat(filepath.Join(out, "trace-deep.local-single.json")); err != nil || st.Size() == 0 {
		t.Errorf("no span file: %v", err)
	}
}
