package workload

import (
	"container/heap"
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// Scenario is a pull-based schedule generator: the open seam that replaced
// the closed Config enum. Next returns events in nondecreasing At order;
// ok=false means the scenario is exhausted. Scenarios are single-use
// iterators, and every random choice is drawn from the runner-provided rng
// in pull order, so a fixed seed and composition replays the exact same
// schedule on any executor.
type Scenario interface {
	// Name identifies the scenario in logs, result rows, and the CLI.
	Name() string
	// Next returns the next event of the schedule.
	Next(rng *rand.Rand) (Event, bool)
}

// Collect drains a scenario into a materialized schedule using a fresh
// rng seeded with seed, enforcing the nondecreasing-time contract.
func Collect(sc Scenario, seed int64) ([]Event, error) {
	rng := rand.New(rand.NewSource(seed))
	var events []Event
	for {
		ev, ok := sc.Next(rng)
		if !ok {
			return events, nil
		}
		if n := len(events); n > 0 && ev.At < events[n-1].At {
			return nil, fmt.Errorf("workload: scenario %s emitted %v at %v after %v: out of order",
				sc.Name(), ev.Kind, ev.At, events[n-1].At)
		}
		events = append(events, ev)
	}
}

// Schedule wraps a fixed, time-ordered event slice as a Scenario, for
// replaying pre-generated or externally captured schedules.
func Schedule(name string, events []Event) Scenario {
	return &scheduleScenario{name: name, events: events}
}

type scheduleScenario struct {
	name   string
	events []Event
	i      int
}

func (s *scheduleScenario) Name() string { return s.name }

func (s *scheduleScenario) Next(*rand.Rand) (Event, bool) {
	if s.i >= len(s.events) {
		return Event{}, false
	}
	ev := s.events[s.i]
	s.i++
	return ev, true
}

// Merge interleaves scenarios by event time; ties go to the earlier
// argument, so deterministic compositions stay deterministic.
func Merge(scs ...Scenario) Scenario {
	names := make([]string, len(scs))
	for i, sc := range scs {
		names[i] = sc.Name()
	}
	return &mergeScenario{
		name:  "merge(" + strings.Join(names, "+") + ")",
		srcs:  scs,
		heads: make([]*Event, len(scs)),
	}
}

type mergeScenario struct {
	name  string
	srcs  []Scenario
	heads []*Event // one-event lookahead per source; nil = refill needed
	done  []bool
}

func (m *mergeScenario) Name() string { return m.name }

func (m *mergeScenario) Next(rng *rand.Rand) (Event, bool) {
	if m.done == nil {
		m.done = make([]bool, len(m.srcs))
	}
	best := -1
	for i := range m.srcs {
		if m.heads[i] == nil && !m.done[i] {
			if ev, ok := m.srcs[i].Next(rng); ok {
				ev := ev
				m.heads[i] = &ev
			} else {
				m.done[i] = true
			}
		}
		if m.heads[i] != nil && (best < 0 || m.heads[i].At < m.heads[best].At) {
			best = i
		}
	}
	if best < 0 {
		return Event{}, false
	}
	ev := *m.heads[best]
	m.heads[best] = nil
	return ev, true
}

// Shift delays every event of a scenario by d.
func Shift(sc Scenario, d time.Duration) Scenario {
	return &shiftScenario{src: sc, d: d}
}

type shiftScenario struct {
	src Scenario
	d   time.Duration
}

func (s *shiftScenario) Name() string { return fmt.Sprintf("%s+%v", s.src.Name(), s.d) }

func (s *shiftScenario) Next(rng *rand.Rand) (Event, bool) {
	ev, ok := s.src.Next(rng)
	if !ok {
		return Event{}, false
	}
	ev.At += s.d
	return ev, true
}

// Limit truncates a scenario after n events.
func Limit(sc Scenario, n int) Scenario {
	return &limitScenario{src: sc, left: n}
}

type limitScenario struct {
	src  Scenario
	left int
}

func (l *limitScenario) Name() string { return l.src.Name() }

func (l *limitScenario) Next(rng *rand.Rand) (Event, bool) {
	if l.left <= 0 {
		return Event{}, false
	}
	ev, ok := l.src.Next(rng)
	if !ok {
		l.left = 0
		return Event{}, false
	}
	l.left--
	return ev, true
}

// eventQueue is a stable min-heap of future events ordered by (At, push
// order), built on container/heap; streaming scenarios park departures and
// view changes here while arrivals advance.
type eventQueue struct {
	h   queuedEvents
	seq uint64
}

type queuedEvent struct {
	ev  Event
	seq uint64
}

type queuedEvents []queuedEvent

func (h queuedEvents) Len() int { return len(h) }
func (h queuedEvents) Less(i, j int) bool {
	if h[i].ev.At != h[j].ev.At {
		return h[i].ev.At < h[j].ev.At
	}
	return h[i].seq < h[j].seq
}
func (h queuedEvents) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *queuedEvents) Push(x interface{}) { *h = append(*h, x.(queuedEvent)) }
func (h *queuedEvents) Pop() interface{} {
	old := *h
	n := len(old)
	qe := old[n-1]
	old[n-1] = queuedEvent{}
	*h = old[:n-1]
	return qe
}

func (q *eventQueue) len() int { return len(q.h) }

func (q *eventQueue) push(ev Event) {
	q.seq++
	heap.Push(&q.h, queuedEvent{ev: ev, seq: q.seq})
}

// peekAt returns the earliest queued time.
func (q *eventQueue) peekAt() (time.Duration, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].ev.At, true
}

func (q *eventQueue) pop() Event {
	return heap.Pop(&q.h).(queuedEvent).ev
}
