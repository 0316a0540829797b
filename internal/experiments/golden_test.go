package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"testing"

	"telecast/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite the figure golden file")

const figureGoldenPath = "testdata/figures.golden.json"

// fig14cRows is Fig 14(c) in serializable form: the CDFs as the plotted
// (x, P(X≤x)) points.
type fig14cRows struct {
	JoinDelays       []metrics.Point
	ViewChangeDelays []metrics.Point
	Join95th         float64
	ViewChange95th   float64
}

// figureRuns are the pinned experiments, each run at testSetup().
var figureRuns = map[string]func(Setup) (any, error){
	"fig13a": func(s Setup) (any, error) { return RunFig13a(s) },
	"fig13b": func(s Setup) (any, error) { return RunFig13b(s) },
	"fig13c": func(s Setup) (any, error) { return RunFig13c(s) },
	"fig14a": func(s Setup) (any, error) { return RunFig14a(s) },
	"fig14b": func(s Setup) (any, error) { return RunFig14b(s) },
	"fig14c": func(s Setup) (any, error) {
		res, err := RunFig14c(s)
		return fig14cRows{
			JoinDelays:       res.JoinDelays.Points(),
			ViewChangeDelays: res.ViewChangeDelays.Points(),
			Join95th:         res.Join95th,
			ViewChange95th:   res.ViewChange95th,
		}, err
	},
	"fig15a":               func(s Setup) (any, error) { return RunFig15a(s) },
	"fig15b":               func(s Setup) (any, error) { return RunFig15b(s) },
	"ablation-outbound":    func(s Setup) (any, error) { return RunAblationOutbound(s) },
	"ablation-pushdown":    func(s Setup) (any, error) { return RunAblationPushdown(s) },
	"ablation-grouping":    func(s Setup) (any, error) { return RunAblationGrouping(s) },
	"ablation-layer-fade":  func(s Setup) (any, error) { return RunAblationLayerFade(s) },
	"ablation-view-change": func(s Setup) (any, error) { return RunAblationViewChange(s) },
	"churn":                func(s Setup) (any, error) { return RunChurn(s) },
}

// TestFiguresMatchGolden pins the exact rows of every figure and ablation
// the shape tests check qualitatively, so a change to placement-adjacent
// behaviour shows up as a reviewed diff rather than a surprise. Every run is
// deterministic per seed. Regenerate with -update only for a reviewed
// behaviour change.
func TestFiguresMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	keys := make([]string, 0, len(figureRuns))
	for key := range figureRuns {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	got := make(map[string]any, len(keys))
	for _, key := range keys {
		res, err := figureRuns[key](testSetup())
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got[key] = res
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if *updateGolden {
		if err := os.WriteFile(figureGoldenPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(figureGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, want) {
		return
	}
	var wantRuns map[string]json.RawMessage
	if err := json.Unmarshal(want, &wantRuns); err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		g, _ := json.Marshal(got[key])
		var w bytes.Buffer
		if err := json.Compact(&w, wantRuns[key]); err != nil {
			t.Fatalf("%s: golden entry missing or malformed: %v", key, err)
		}
		if !bytes.Equal(g, w.Bytes()) {
			t.Errorf("%s diverges from golden:\n got: %s\nwant: %s", key, g, w.Bytes())
		}
	}
	if !t.Failed() {
		t.Error("golden file differs from the runs only in layout; regenerate it with -update")
	}
}
