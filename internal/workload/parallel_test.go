package workload

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/trace"
)

// newScenarioController sizes a controller for a collected schedule: the
// latency matrix holds the GSC, one LSC per region, and every join event.
func newScenarioController(t testing.TB, events []Event, seed int64, opts ...session.Option) (*session.Controller, *model.Session) {
	t.Helper()
	producers, err := model.NewSession(
		model.NewRingSite("A", 8, 2.0, 10),
		model.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	joins := 0
	for _, ev := range events {
		if ev.Kind == EventJoin {
			joins++
		}
	}
	lat, err := trace.GenerateLatencyMatrix(trace.DefaultLatencyConfig(joins+16, seed))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := session.NewController(producers, lat, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, producers
}

// TestParallelRunnerScenarioSmoke is the CI scenario-smoke gate: the
// wall-clock executor drives the sharded control plane across many regions
// under -race, with the invariant checker on at every sample, and the event
// stream cross-checks the admission counts.
func TestParallelRunnerScenarioSmoke(t *testing.T) {
	for _, name := range []string{"regional-hotspot", "mass-departure", "mobility"} {
		name := name
		t.Run(name, func(t *testing.T) {
			const seed = 21
			sc, err := FromCatalog(name, Knobs{Seed: seed, Audience: 220, Duration: 12 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			events, err := Collect(sc, seed)
			if err != nil {
				t.Fatal(err)
			}
			ctrl, producers := newScenarioController(t, events, seed)
			tracker := TrackAcceptance(ctrl)
			res, err := NewParallelRunner().Run(context.Background(), ctrl, producers,
				Schedule(name, events),
				WithSeed(seed),
				WithValidation(true),
				WithBatchWindow(500*time.Millisecond),
			)
			if err != nil {
				t.Fatal(err)
			}
			totals := tracker.Stop()
			if res.Joins == 0 {
				t.Fatal("no joins admitted")
			}
			if res.Regions < 4 {
				t.Fatalf("parallel executor touched %d regions, want >= 4", res.Regions)
			}
			if err := ctrl.Validate(); err != nil {
				t.Fatalf("invariants after run: %v", err)
			}
			if totals.EventsDropped == 0 && totals.Accepted != res.Joins {
				t.Fatalf("event stream counted %d admissions, runner says %d", totals.Accepted, res.Joins)
			}
			if name == "mass-departure" && res.Leaves == 0 {
				t.Fatal("mass departure executed no leaves")
			}
			if name == "mobility" && res.Migrations == 0 {
				t.Fatal("mobility landed no migrations")
			}
		})
	}
}

// TestParallelMatchesSimEventTotals replays one schedule through both
// executors: admission outcomes may differ under concurrency, but every
// event must be accounted for identically.
func TestParallelMatchesSimEventTotals(t *testing.T) {
	const seed = 13
	sc, err := FromCatalog("flash-churn", Knobs{Seed: seed, Audience: 160, Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	events, err := Collect(sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	ctrlSim, producers := newScenarioController(t, events, seed)
	simRes, err := NewSimRunner().Run(context.Background(), ctrlSim, producers, Schedule("sim", events), WithSeed(seed), WithValidation(true))
	if err != nil {
		t.Fatal(err)
	}
	ctrlPar, producersPar := newScenarioController(t, events, seed)
	parRes, err := NewParallelRunner().Run(context.Background(), ctrlPar, producersPar, Schedule("par", events), WithSeed(seed), WithValidation(true))
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Joins+simRes.Rejected != parRes.Joins+parRes.Rejected {
		t.Errorf("join totals differ: sim %d+%d, parallel %d+%d",
			simRes.Joins, simRes.Rejected, parRes.Joins, parRes.Rejected)
	}
	if simRes.Leaves != parRes.Leaves {
		t.Errorf("leaves differ: sim %d, parallel %d", simRes.Leaves, parRes.Leaves)
	}
	if simRes.ViewChanges != parRes.ViewChanges {
		t.Errorf("view changes differ: sim %d, parallel %d", simRes.ViewChanges, parRes.ViewChanges)
	}
	if parRes.JoinsPerSec <= 0 {
		t.Error("parallel runner reported no throughput")
	}
	if len(parRes.Samples) == 0 {
		t.Error("parallel runner took no samples")
	}
}

func TestParallelRunnerHonorsCancellation(t *testing.T) {
	const seed = 5
	sc, err := FromCatalog("flash-churn", Knobs{Seed: seed, Audience: 80, Duration: 8 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	events, err := Collect(sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, producers := newScenarioController(t, events, seed)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewParallelRunner().Run(ctx, ctrl, producers, Schedule("cancelled", events), WithSeed(seed)); err == nil {
		t.Fatal("cancelled run reported success")
	}
}

func TestSinksReceiveSamples(t *testing.T) {
	const seed = 17
	sc, err := FromCatalog("view-sweep", Knobs{Seed: seed, Audience: 60, Duration: 12 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	events, err := Collect(sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, producers := newScenarioController(t, events, seed)
	var csvBuf, jsonBuf bytes.Buffer
	stats := NewStatsSink()
	res, err := NewSimRunner().Run(context.Background(), ctrl, producers,
		Schedule("view-sweep", events),
		WithSeed(seed),
		WithSink(NewCSVSink(&csvBuf)),
		WithSink(NewJSONSink(&jsonBuf)),
		WithSink(stats),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
	csvLines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(csvLines) != len(res.Samples)+1 { // header + rows
		t.Errorf("csv rows = %d, want %d", len(csvLines), len(res.Samples)+1)
	}
	if !strings.HasPrefix(csvLines[0], "t_seconds,") {
		t.Errorf("csv header missing: %q", csvLines[0])
	}
	jsonLines := strings.Split(strings.TrimSpace(jsonBuf.String()), "\n")
	if len(jsonLines) != len(res.Samples) {
		t.Errorf("json rows = %d, want %d", len(jsonLines), len(res.Samples))
	}
	if got := stats.Samples(); len(got) != len(res.Samples) {
		t.Errorf("stats sink rows = %d, want %d", len(got), len(res.Samples))
	}
	if stats.PeakViewers() == 0 {
		t.Error("stats sink saw no viewers")
	}
	if res.ViewChanges == 0 {
		t.Error("view sweep executed no view changes")
	}
}

func TestParallelRunnerHonorsHorizon(t *testing.T) {
	events := []Event{
		{At: 1 * time.Second, Kind: EventJoin, Viewer: "h0", OutboundMbps: 4},
		{At: 2 * time.Second, Kind: EventJoin, Viewer: "h1", OutboundMbps: 4},
		{At: 5 * time.Second, Kind: EventJoin, Viewer: "h2", OutboundMbps: 4}, // exactly at horizon: runs
		{At: 30 * time.Second, Kind: EventJoin, Viewer: "h3", OutboundMbps: 4},
	}
	ctrl, producers := newScenarioController(t, events, 1)
	res, err := NewParallelRunner().Run(context.Background(), ctrl, producers,
		Schedule("horizon", events), WithHorizon(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins+res.Rejected != 3 {
		t.Fatalf("executed %d joins, want 3 (horizon must drop the 30s event)", res.Joins+res.Rejected)
	}
}
