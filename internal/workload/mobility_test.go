package workload

import (
	"context"
	"testing"
	"time"

	"telecast/internal/trace"
)

func TestMobilityScheduleShape(t *testing.T) {
	sc, err := FromCatalog("mobility", Knobs{Seed: 3, Audience: 200, Duration: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	events, err := Collect(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[EventKind]int{}
	joinRegion := make(map[string]bool)
	for _, ev := range events {
		counts[ev.Kind]++
		switch ev.Kind {
		case EventJoin:
			if _, ok := ev.Region.Region(); !ok {
				t.Fatalf("mobility join %s carries no region hint", ev.Viewer)
			}
			joinRegion[string(ev.Viewer)] = true
		case EventMigrate:
			r, ok := ev.Region.Region()
			if !ok {
				t.Fatalf("migrate event for %s has no destination", ev.Viewer)
			}
			if int(r) >= 8 {
				t.Fatalf("migrate destination %d outside the default 8-region walk", r)
			}
			if !joinRegion[string(ev.Viewer)] {
				t.Fatalf("viewer %s migrates before joining", ev.Viewer)
			}
		}
	}
	if counts[EventJoin] == 0 || counts[EventMigrate] == 0 {
		t.Fatalf("degenerate schedule: %v", counts)
	}
}

// TestMobilityWithoutDeparturesStillMigrates pins the permanent-audience
// config: viewers that never depart (MeanSession 0) keep roaming until the
// horizon instead of silently generating a migration-free schedule.
func TestMobilityWithoutDeparturesStillMigrates(t *testing.T) {
	sc, err := Mobility(MobilityConfig{
		Duration:    20 * time.Second,
		ArrivalRate: 10,
		Regions:     4,
		MigrateRate: 0.5,
		ViewAngles:  []float64{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := Collect(sc, 31)
	if err != nil {
		t.Fatal(err)
	}
	migrates, leaves := 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case EventMigrate:
			migrates++
		case EventLeave:
			leaves++
		}
	}
	if leaves != 0 {
		t.Fatalf("%d departures with MeanSession 0", leaves)
	}
	if migrates == 0 {
		t.Fatal("permanent audience generated no migrations")
	}
}

func TestEvacuationDrainsOneRegion(t *testing.T) {
	const evacuated = trace.Region(2)
	sc, err := Evacuation(EvacuationConfig{
		Population: 300,
		RampWindow: 5 * time.Second,
		Regions:    8,
		EvacRegion: evacuated,
		EvacAt:     10 * time.Second,
		EvacWindow: 2 * time.Second,
		OutboundLo: 0, OutboundHi: 12,
		ViewAngles: []float64{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := Collect(sc, 9)
	if err != nil {
		t.Fatal(err)
	}
	homed := map[string]trace.Region{}
	migrated := map[string]bool{}
	for _, ev := range events {
		r, _ := ev.Region.Region()
		switch ev.Kind {
		case EventJoin:
			homed[string(ev.Viewer)] = r
		case EventMigrate:
			if homed[string(ev.Viewer)] != evacuated {
				t.Fatalf("viewer %s of region %d evacuated", ev.Viewer, homed[string(ev.Viewer)])
			}
			if r == evacuated {
				t.Fatalf("viewer %s evacuated back into region %d", ev.Viewer, r)
			}
			if ev.At < 10*time.Second || ev.At > 12*time.Second {
				t.Fatalf("evacuation at %v outside the window", ev.At)
			}
			migrated[string(ev.Viewer)] = true
		}
	}
	for id, home := range homed {
		if home == evacuated && !migrated[id] {
			t.Fatalf("viewer %s left behind in the evacuated region", id)
		}
	}
	if len(migrated) == 0 {
		t.Fatal("nobody evacuated")
	}
}

// TestSimRunnerMobility replays the mobility scenario deterministically and
// checks the migration counters move and the overlay stays valid.
func TestSimRunnerMobility(t *testing.T) {
	const seed = 17
	sc, err := FromCatalog("mobility", Knobs{Seed: seed, Audience: 120, Duration: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	events, err := Collect(sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, producers := newScenarioController(t, events, seed)
	res, err := NewSimRunner().Run(context.Background(), ctrl, producers,
		Schedule("mobility", events), WithSeed(seed), WithValidation(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins == 0 {
		t.Fatal("no joins")
	}
	if res.Migrations == 0 {
		t.Fatal("no migration landed")
	}
	if err := ctrl.Validate(); err != nil {
		t.Fatalf("invariants after mobility replay: %v", err)
	}
}

// TestParallelRunnerMigrationsMatchEventStream drives the mobility scenario
// through the wall-clock executor and cross-checks the runner's landed-
// migration counter against the EventMigratedIn stream.
func TestParallelRunnerMigrationsMatchEventStream(t *testing.T) {
	const seed = 23
	sc, err := FromCatalog("mobility", Knobs{Seed: seed, Audience: 150, Duration: 12 * time.Second})
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
		Schedule("mobility", events), WithSeed(seed), WithValidation(true))
	if err != nil {
		t.Fatal(err)
	}
	totals := tracker.Stop()
	if res.Migrations == 0 {
		t.Fatal("no migration landed")
	}
	if totals.EventsDropped == 0 && totals.MigratedIn != res.Migrations {
		t.Fatalf("event stream saw %d arrivals, runner landed %d", totals.MigratedIn, res.Migrations)
	}
	if err := ctrl.Validate(); err != nil {
		t.Fatalf("invariants after mobility run: %v", err)
	}

	// Landed handoffs feed the run's migration-delay distribution, one
	// sample each.
	if n := res.MigrationDelays.Len(); n != res.Migrations {
		t.Fatalf("%d migration protocol delays recorded for %d landed migrations", n, res.Migrations)
	}
}
