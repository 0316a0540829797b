package workload

import (
	"context"
	"testing"
	"time"

	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/trace"
)

// flashChurnSchedule collects the FlashChurn scenario for cfg, seeded by
// cfg.Seed.
func flashChurnSchedule(cfg Config) ([]Event, error) {
	sc, err := FlashChurn(cfg)
	if err != nil {
		return nil, err
	}
	return Collect(sc, cfg.Seed)
}

func TestGenerateValidation(t *testing.T) {
	if _, err := flashChurnSchedule(Config{}); err == nil {
		t.Error("zero duration accepted")
	}
	cfg := DefaultConfig(1)
	cfg.ViewAngles = nil
	if _, err := flashChurnSchedule(cfg); err == nil {
		t.Error("no view angles accepted")
	}
}

func TestGenerateDeterministicAndOrdered(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Duration = 20 * time.Second
	cfg.FlashCrowd = 50
	a, err := flashChurnSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := flashChurnSchedule(cfg)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic schedule: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs", i)
		}
		if i > 0 && a[i].At < a[i-1].At {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Duration = 30 * time.Second
	cfg.FlashCrowd = 100
	cfg.FlashWindow = time.Second
	events, err := flashChurnSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	joins, leaves, changes := 0, 0, 0
	flashJoins := 0
	for _, ev := range events {
		switch ev.Kind {
		case EventJoin:
			joins++
			if ev.At < cfg.FlashWindow {
				flashJoins++
			}
			if ev.OutboundMbps < cfg.OutboundLo || ev.OutboundMbps > cfg.OutboundHi {
				t.Fatalf("outbound %v outside bounds", ev.OutboundMbps)
			}
		case EventLeave:
			leaves++
		case EventViewChange:
			changes++
		}
		if ev.At < 0 || ev.At > cfg.Duration {
			t.Fatalf("event at %v outside horizon", ev.At)
		}
	}
	if flashJoins < cfg.FlashCrowd {
		t.Errorf("flash crowd joins = %d, want >= %d", flashJoins, cfg.FlashCrowd)
	}
	if joins <= cfg.FlashCrowd {
		t.Error("no steady-state arrivals generated")
	}
	if leaves == 0 || changes == 0 {
		t.Errorf("leaves=%d changes=%d, want both positive", leaves, changes)
	}
	if leaves > joins {
		t.Error("more leaves than joins")
	}
}

func TestExecuteChurnScenario(t *testing.T) {
	producers, err := model.NewSession(
		model.NewRingSite("A", 8, 2.0, 10),
		model.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(11)
	cfg.Duration = 20 * time.Second
	cfg.FlashCrowd = 80
	cfg.ArrivalRate = 4
	cfg.MeanSession = 10 * time.Second
	events, err := flashChurnSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Size the matrix for every join the schedule contains.
	joins := 0
	for _, ev := range events {
		if ev.Kind == EventJoin {
			joins++
		}
	}
	lat, err := trace.GenerateLatencyMatrix(trace.DefaultLatencyConfig(joins+16, 11))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := session.NewController(producers, lat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewSimRunner().Run(context.Background(), ctrl, producers,
		Schedule("flash-churn", events),
		WithSeed(cfg.Seed),
		WithInbound(cfg.InboundMbps),
		WithHorizon(cfg.Duration),
		WithValidation(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins+res.Rejected != joins {
		t.Errorf("executed joins = %d admitted + %d rejected, want %d total", res.Joins, res.Rejected, joins)
	}
	// The split keeps workload-side acceptance consistent with the
	// overlay's own admission accounting.
	st := ctrl.Stats()
	if res.Joins > st.Overlay.Admitted || res.Rejected > st.Overlay.Rejected {
		t.Errorf("workload counted %d/%d admitted/rejected, overlay says %d/%d",
			res.Joins, res.Rejected, st.Overlay.Admitted, st.Overlay.Rejected)
	}
	if res.Leaves == 0 || res.ViewChanges == 0 {
		t.Errorf("leaves=%d changes=%d", res.Leaves, res.ViewChanges)
	}
	// Early departures can overlap the arrival window, so the peak sits a
	// little below the nominal crowd size.
	if res.PeakViewers < cfg.FlashCrowd*3/4 {
		t.Errorf("peak = %d, want >= 3/4 of flash crowd %d", res.PeakViewers, cfg.FlashCrowd)
	}
	if len(res.Samples) != 20 {
		t.Fatalf("samples = %d, want 20", len(res.Samples))
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Viewers <= 0 || last.Acceptance <= 0 {
		t.Errorf("degenerate final sample: %+v", last)
	}
	if err := ctrl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateNoDeparturesWhenMeanSessionZero(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Duration = 10 * time.Second
	cfg.MeanSession = 0
	cfg.FlashCrowd = 20
	events, err := flashChurnSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Kind == EventLeave || ev.Kind == EventViewChange {
			t.Fatalf("unexpected %v event with immortal sessions", ev.Kind)
		}
	}
}

func TestExecuteSkipsActionsOnDepartedViewers(t *testing.T) {
	producers, err := model.NewSession(
		model.NewRingSite("A", 4, 2.0, 10),
		model.NewRingSite("B", 4, 2.0, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := trace.GenerateLatencyMatrix(trace.DefaultLatencyConfig(32, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := session.NewController(producers, lat)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-built schedule: join, leave, then a stale view change and a
	// stale second leave that must both be skipped silently.
	events := []Event{
		{At: time.Second, Kind: EventJoin, Viewer: "w", OutboundMbps: 4, ViewAngle: 0},
		{At: 2 * time.Second, Kind: EventLeave, Viewer: "w"},
		{At: 3 * time.Second, Kind: EventViewChange, Viewer: "w", ViewAngle: 1},
		{At: 4 * time.Second, Kind: EventLeave, Viewer: "w"},
	}
	res, err := NewSimRunner().Run(context.Background(), ctrl, producers,
		Schedule("stale", events), WithHorizon(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins != 1 || res.Leaves != 1 || res.ViewChanges != 0 {
		t.Fatalf("counts = %+v", res)
	}
}
