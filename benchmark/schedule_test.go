package main

import (
	"bytes"
	"testing"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, s := range specs(true) {
		a, b := s.schedule(7, 2), s.schedule(7, 2)
		if !bytes.Equal(a.bytes(), b.bytes()) || a.sha256() != b.sha256() {
			t.Errorf("%s: same seed gave different schedules", s.name)
		}
		if c := s.schedule(8, 2); bytes.Equal(a.bytes(), c.bytes()) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", s.name)
		}
	}
}

// checkViewerOrder walks one driver's ops in order and fails unless every
// viewer it meets belongs to that driver and lives a legal life: joined
// before anything else, nothing after leaving.
func checkViewerOrder(t *testing.T, name string, drivers int, lists [][]op, live map[uint32]bool) {
	t.Helper()
	for d, ops := range lists {
		for _, o := range ops {
			if drivers > 0 && int(o.viewer)%drivers != d {
				t.Fatalf("%s: viewer %d is on driver %d, want %d", name, o.viewer, d, int(o.viewer)%drivers)
			}
			switch o.kind {
			case opJoin:
				if live[o.viewer] {
					t.Fatalf("%s: viewer %d joins twice", name, o.viewer)
				}
				live[o.viewer] = true
			case opLeave:
				if !live[o.viewer] {
					t.Fatalf("%s: viewer %d leaves before joining", name, o.viewer)
				}
				delete(live, o.viewer)
			case opView:
				if !live[o.viewer] {
					t.Fatalf("%s: viewer %d changes view while absent", name, o.viewer)
				}
			}
		}
	}
}

func TestPerViewerOrderSurvivesTheSplitAcrossDrivers(t *testing.T) {
	for _, s := range specs(true) {
		sched := s.schedule(3, 2)
		// Each driver's list alone must be a legal history of its own
		// viewers: that is what lets drivers run unsynchronised in a phase.
		live := map[uint32]bool{}
		for _, ph := range append(append([]phase(nil), sched.warm...), sched.cycle...) {
			checkViewerOrder(t, s.name+"/"+ph.name, sched.drivers, ph.ops, live)
		}
		if sched.loop && len(live) != 0 {
			t.Errorf("%s: %d viewers still live after a whole cycle", s.name, len(live))
		}
		// The single-threaded replay must keep that order too.
		live = map[uint32]bool{}
		merged := mergedSchedule(sched)
		for _, ph := range append(append([]phase(nil), merged.warm...), merged.cycle...) {
			checkViewerOrder(t, s.name+"/merged/"+ph.name, 0, ph.ops, live)
		}
		if got, want := merged.cycle[0].len(), sched.cycle[0].len(); got != want {
			t.Errorf("%s: merging lost ops: %d of %d", s.name, got, want)
		}
	}
}

func TestChurnAudienceStaysInsideItsBand(t *testing.T) {
	s, _ := findSpec("churn.wire-single", false)
	sched := s.schedule(1, 5)
	share := s.viewers / s.drivers
	for d, ops := range sched.cycle[0].ops {
		live := len(sched.warm[0].ops[d])
		for _, o := range ops {
			switch o.kind {
			case opJoin:
				live++
			case opLeave:
				live--
			}
			if live < int(churnFloor*float64(share)) || live > int(churnCeil*float64(share)) {
				t.Fatalf("driver %d: audience %d left [%v, %v] x %d", d, live, churnFloor, churnCeil, share)
			}
		}
	}
}
