package workload

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"telecast/internal/model"
	"telecast/internal/trace"
)

func TestSortEventsStableTies(t *testing.T) {
	// Three tie groups; within a group, generation order must survive.
	var events []Event
	for i := 0; i < 30; i++ {
		events = append(events, Event{
			At:     time.Duration(i%3) * time.Second,
			Kind:   EventJoin,
			Viewer: vidN(i),
		})
	}
	sortEvents(events)
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("out of order at %d", i)
		}
		if events[i].At == events[i-1].At && events[i].Viewer <= events[i-1].Viewer {
			t.Fatalf("tie order broken at %d: %s after %s", i, events[i].Viewer, events[i-1].Viewer)
		}
	}
}

// TestGenerateLargeSchedule is the 50k-event regression for the former
// O(n²) insertion sort: generation at this scale must stay fast and ordered.
func TestGenerateLargeSchedule(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.FlashCrowd = 12000
	cfg.ArrivalRate = 400
	start := time.Now()
	events, err := flashChurnSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(events) < 50000 {
		t.Fatalf("schedule too small for the regression: %d events", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("out of order at %d", i)
		}
	}
	// The quadratic sort took tens of seconds here; SliceStable is well
	// under a second even on slow CI. Generous bound to avoid flakes.
	if elapsed > 30*time.Second {
		t.Fatalf("generating %d events took %v: sort regressed?", len(events), elapsed)
	}
}

func TestMergeInterleavesByTime(t *testing.T) {
	a := Schedule("a", []Event{
		{At: 1 * time.Second, Kind: EventJoin, Viewer: "a1"},
		{At: 3 * time.Second, Kind: EventJoin, Viewer: "a3"},
	})
	b := Schedule("b", []Event{
		{At: 1 * time.Second, Kind: EventJoin, Viewer: "b1"},
		{At: 2 * time.Second, Kind: EventJoin, Viewer: "b2"},
	})
	events, err := Collect(Merge(a, b), 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range events {
		got = append(got, string(ev.Viewer))
	}
	want := []string{"a1", "b1", "b2", "a3"} // tie at 1s goes to the earlier argument
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestShiftAndLimit(t *testing.T) {
	base := []Event{
		{At: 1 * time.Second, Kind: EventJoin, Viewer: "v0"},
		{At: 2 * time.Second, Kind: EventJoin, Viewer: "v1"},
		{At: 3 * time.Second, Kind: EventJoin, Viewer: "v2"},
	}
	shifted, err := Collect(Shift(Schedule("s", base), 10*time.Second), 1)
	if err != nil {
		t.Fatal(err)
	}
	if shifted[0].At != 11*time.Second || shifted[2].At != 13*time.Second {
		t.Fatalf("shift misapplied: %v", shifted)
	}
	limited, err := Collect(Limit(Schedule("s", base), 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 2 || limited[1].Viewer != "v1" {
		t.Fatalf("limit misapplied: %v", limited)
	}
}

func smallKnobs(seed int64) Knobs {
	return Knobs{Seed: seed, Audience: 120, Duration: 12 * time.Second}
}

func TestCatalogScenariosDeterministicAndOrdered(t *testing.T) {
	for _, name := range CatalogNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := FromCatalog(name, smallKnobs(9))
			if err != nil {
				t.Fatal(err)
			}
			a, err := Collect(sc, 9)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) == 0 {
				t.Fatal("empty schedule")
			}
			joins := 0
			for i, ev := range a {
				if i > 0 && ev.At < a[i-1].At {
					t.Fatalf("out of order at %d", i)
				}
				if ev.Kind == EventJoin {
					joins++
				}
			}
			if joins == 0 {
				t.Fatal("no joins generated")
			}
			sc2, err := FromCatalog(name, smallKnobs(9))
			if err != nil {
				t.Fatal(err)
			}
			b, err := Collect(sc2, 9)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("non-deterministic: %d vs %d events", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("non-deterministic at event %d", i)
				}
			}
		})
	}
}

func TestDiurnalLoadFollowsTheCycle(t *testing.T) {
	sc, err := Diurnal(DiurnalConfig{
		Duration:   40 * time.Second,
		BaseRate:   30,
		Swing:      0.9,
		ViewAngles: []float64{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := Collect(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 0 rises first: the first half-period carries the peak, the
	// second the trough.
	first, second := 0, 0
	for _, ev := range events {
		if ev.Kind != EventJoin {
			continue
		}
		if ev.At < 20*time.Second {
			first++
		} else {
			second++
		}
	}
	if first <= second*2 {
		t.Fatalf("diurnal peak not visible: %d arrivals in peak half vs %d in trough half", first, second)
	}
}

func TestRegionalHotspotSkewsHints(t *testing.T) {
	hot := trace.Region(3)
	sc, err := RegionalHotspot(HotspotConfig{
		Duration:    20 * time.Second,
		ArrivalRate: 25,
		HotRegion:   hot,
		HotShare:    0.8,
		ViewAngles:  []float64{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := Collect(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	joins, hinted := 0, 0
	for _, ev := range events {
		if ev.Kind != EventJoin {
			continue
		}
		joins++
		if r, ok := ev.Region.Region(); ok {
			if r != hot {
				t.Fatalf("hint targets region %d, want %d", r, hot)
			}
			hinted++
		}
	}
	if joins < 100 {
		t.Fatalf("too few joins to judge skew: %d", joins)
	}
	if frac := float64(hinted) / float64(joins); frac < 0.7 || frac > 0.9 {
		t.Fatalf("hinted fraction %.2f, want ~0.8", frac)
	}
}

func TestMassDepartureWaves(t *testing.T) {
	cfg := MassDepartureConfig{
		Population:     200,
		RampWindow:     4 * time.Second,
		DepartAt:       10 * time.Second,
		DepartWindow:   time.Second,
		Fraction:       0.5,
		RejoinAt:       15 * time.Second,
		RejoinWindow:   2 * time.Second,
		RejoinFraction: 0.5,
		ViewAngles:     []float64{0},
	}
	sc, err := MassDeparture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := Collect(sc, 11)
	if err != nil {
		t.Fatal(err)
	}
	leaves, rejoins := 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case EventLeave:
			if ev.At < cfg.DepartAt || ev.At > cfg.DepartAt+cfg.DepartWindow {
				t.Fatalf("departure at %v outside the wave", ev.At)
			}
			leaves++
		case EventJoin:
			if ev.At > cfg.RampWindow {
				if ev.At < cfg.RejoinAt || ev.At > cfg.RejoinAt+cfg.RejoinWindow {
					t.Fatalf("rejoin at %v outside the wave", ev.At)
				}
				rejoins++
			}
		}
	}
	if leaves == 0 || rejoins == 0 {
		t.Fatalf("degenerate waves: %d leaves, %d rejoins", leaves, rejoins)
	}
	if rejoins > leaves {
		t.Fatalf("more rejoins (%d) than departures (%d)", rejoins, leaves)
	}
}

func TestViewSweepSynchronized(t *testing.T) {
	sc, err := ViewSweep(ViewSweepConfig{
		Population: 50,
		RampWindow: 2 * time.Second,
		Sweeps:     3,
		SweepEvery: 5 * time.Second,
		ViewAngles: []float64{0, 1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := Collect(sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	byInstant := make(map[time.Duration]int)
	for _, ev := range events {
		if ev.Kind == EventViewChange {
			byInstant[ev.At]++
		}
	}
	if len(byInstant) != 3 {
		t.Fatalf("expected 3 synchronized sweep instants, got %d", len(byInstant))
	}
	for at, n := range byInstant {
		if n != 50 {
			t.Fatalf("sweep at %v moved %d viewers, want all 50", at, n)
		}
	}
}

func TestEventQueueStableOnTies(t *testing.T) {
	var q eventQueue
	rng := rand.New(rand.NewSource(1))
	const n = 200
	for i := 0; i < n; i++ {
		q.push(Event{
			At:     time.Duration(rng.Intn(5)) * time.Second,
			Viewer: vidN(i),
		})
	}
	var prev Event
	prevSeq := make(map[time.Duration]string)
	for i := 0; q.len() > 0; i++ {
		ev := q.pop()
		if i > 0 && ev.At < prev.At {
			t.Fatalf("queue out of order at %d", i)
		}
		if last, ok := prevSeq[ev.At]; ok && string(ev.Viewer) <= last {
			t.Fatalf("tie order broken at %v: %s after %s", ev.At, ev.Viewer, last)
		}
		prevSeq[ev.At] = string(ev.Viewer)
		prev = ev
	}
}

// vidN makes zero-padded viewer IDs whose string order follows i.
func vidN(i int) model.ViewerID { return model.ViewerID(fmt.Sprintf("q%04d", i)) }
