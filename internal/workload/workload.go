// Package workload generates and executes dynamic viewer behaviour against
// a 4D TeleCast session — the "large-scale simultaneous viewer arrivals or
// departures" the paper lists as its third challenge (§I).
//
// The package is built around three seams:
//
//   - Scenario: a pull-based, seeded event generator. The catalog covers the
//     original flash-crowd/Poisson-churn mix plus diurnal load, regional
//     hotspots, correlated mass departures, synchronized view sweeps, and
//     trace-driven replay; Merge/Shift/Limit compose them.
//   - Runner: executes a scenario against a session.Controller through one
//     executor with two modes. NewSimRunner replays deterministically, one
//     event at a time through the controller's single-op methods;
//     NewParallelRunner bins due events into JoinBatch/DepartBatch fan-outs
//     and drives the sharded control plane at wall-clock speed, reporting
//     achieved joins/s.
//   - Sink: typed consumers of the periodic samples (stats, CSV, JSON), plus
//     an event-stream-backed AcceptanceTracker over Controller.Subscribe.
//
// Golden tests pin the FlashChurn schedule and the deterministic runner's
// per-scenario results byte for byte.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"telecast/internal/fault"
	"telecast/internal/model"
	"telecast/internal/session"
)

// EventKind discriminates schedule entries.
type EventKind int

// Schedule event kinds.
const (
	EventJoin EventKind = iota + 1
	EventLeave
	EventViewChange
	// EventMigrate re-homes a viewer to the region of the event's Region
	// hint via the control plane's shard-to-shard handoff.
	EventMigrate
	// EventFault injects the event's Fault into the control plane (kill,
	// recover, snapshot, CDN collapse, delay shift, producer churn). The
	// wall-clock executor treats fault events as pipeline barriers: every
	// earlier bin settles before the fault fires.
	EventFault
)

// String names the kind for logs.
func (k EventKind) String() string {
	switch k {
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	case EventViewChange:
		return "view-change"
	case EventMigrate:
		return "migrate"
	case EventFault:
		return "fault"
	default:
		return "event(?)"
	}
}

// Event is one scheduled viewer action.
type Event struct {
	At     time.Duration
	Kind   EventKind
	Viewer model.ViewerID
	// OutboundMbps applies to joins.
	OutboundMbps float64
	// ViewAngle applies to joins and view changes.
	ViewAngle float64
	// Region optionally pins a join to an LSC region (regional-hotspot
	// scenarios) or names a migration's destination; the zero value keeps
	// the default placement (and makes a migrate event a no-op).
	Region session.RegionHint
	// Fault applies to EventFault entries: the fault to inject at At. The
	// zero value on every other kind (and ignored by the schedule
	// formatter, so the golden scenarios are unaffected).
	Fault fault.Fault
}

// Config parameterizes the FlashChurn scenario: a flash crowd followed by
// Poisson churn. The churn experiment builds it directly; FromCatalog derives
// it from Knobs.
type Config struct {
	// Seed drives all draws.
	Seed int64
	// Duration is the schedule horizon.
	Duration time.Duration
	// FlashCrowd viewers all arrive in the first FlashWindow.
	FlashCrowd  int
	FlashWindow time.Duration
	// ArrivalRate is the steady-state Poisson arrival rate (viewers/s).
	ArrivalRate float64
	// MeanSession is the mean exponential viewing time before departure;
	// zero means viewers never leave.
	MeanSession time.Duration
	// ViewChangeRate is per-viewer view changes per second.
	ViewChangeRate float64
	// OutboundLo/Hi bound the uniform outbound-capacity draw.
	OutboundLo, OutboundHi float64
	// ViewAngles are the views viewers pick from.
	ViewAngles []float64
	// InboundMbps is every viewer's inbound capacity.
	InboundMbps float64
}

// DefaultConfig is a 60-second scenario: a 200-viewer flash crowd in the
// first two seconds, then 5 arrivals/s with 30 s mean sessions and
// occasional view changes.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		Duration:       60 * time.Second,
		FlashCrowd:     200,
		FlashWindow:    2 * time.Second,
		ArrivalRate:    5,
		MeanSession:    30 * time.Second,
		ViewChangeRate: 0.02,
		OutboundLo:     0,
		OutboundHi:     12,
		ViewAngles:     []float64{0, math.Pi / 2, math.Pi},
		InboundMbps:    12,
	}
}

// generateFlashChurn is the FlashChurn generation algorithm, draw-for-draw:
// the scenario's golden schedule depends on the rng consumption order in this
// function never changing. Events come out in time order, ties in generation
// order.
func generateFlashChurn(cfg Config, rng *rand.Rand) []Event {
	var events []Event
	next := 0
	newViewer := func(at time.Duration) {
		id := model.ViewerID(fmt.Sprintf("w%06d", next))
		next++
		obw := cfg.OutboundLo + rng.Float64()*(cfg.OutboundHi-cfg.OutboundLo)
		angle := cfg.ViewAngles[rng.Intn(len(cfg.ViewAngles))]
		events = append(events, Event{
			At: at, Kind: EventJoin, Viewer: id,
			OutboundMbps: obw, ViewAngle: angle,
		})
		// Departure.
		if cfg.MeanSession > 0 {
			stay := time.Duration(rng.ExpFloat64() * float64(cfg.MeanSession))
			if leaveAt := at + stay; leaveAt < cfg.Duration {
				events = append(events, Event{At: leaveAt, Kind: EventLeave, Viewer: id})
				// View changes within the viewer's stay.
				if cfg.ViewChangeRate > 0 {
					for t := at; ; {
						gap := time.Duration(rng.ExpFloat64() / cfg.ViewChangeRate * float64(time.Second))
						t += gap
						if t >= leaveAt {
							break
						}
						events = append(events, Event{
							At: t, Kind: EventViewChange, Viewer: id,
							ViewAngle: cfg.ViewAngles[rng.Intn(len(cfg.ViewAngles))],
						})
					}
				}
			}
		}
	}
	// Flash crowd: uniform within the window.
	for i := 0; i < cfg.FlashCrowd; i++ {
		newViewer(time.Duration(rng.Float64() * float64(cfg.FlashWindow)))
	}
	// Steady-state Poisson arrivals.
	if cfg.ArrivalRate > 0 {
		for t := cfg.FlashWindow; t < cfg.Duration; {
			t += time.Duration(rng.ExpFloat64() / cfg.ArrivalRate * float64(time.Second))
			if t >= cfg.Duration {
				break
			}
			newViewer(t)
		}
	}
	sortEvents(events)
	return events
}

// sortEvents orders by time, stably keeping generation order within ties.
func sortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].At < events[j].At
	})
}
