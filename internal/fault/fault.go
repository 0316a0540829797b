// Package fault is the failure-injection vocabulary of the control plane:
// typed faults, timed plans, and the injector seam the workload runners drive
// them through. The package deliberately knows nothing about sessions or
// scenarios — the session controller implements Injector, and the workload
// layer lifts a Plan into its Scenario algebra so fault schedules compose
// with churn schedules through the same Merge/Shift/Limit combinators.
package fault

import (
	"context"
	"fmt"
	"time"

	"telecast/internal/trace"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// Snapshot is not a failure: it marks a recovery point. The injector
	// persists the region shard's serialized state, so a later RegionOutage
	// rebuilds from that snapshot plus the journal suffix recorded since.
	Snapshot Kind = iota + 1
	// RegionOutage kills a region's LSC: its in-memory overlay state,
	// viewer records included, is lost, its CDN egress is released, and every
	// operation routed to it fails with the session layer's ErrShardDown
	// until a RegionRecover completes.
	RegionOutage
	// RegionRecover rebuilds the killed region from its last snapshot plus
	// an event-sourced replay of the journal, then evacuates viewers the
	// rebuilt shard could no longer admit.
	RegionRecover
	// CDNCollapse rescales the shared CDN egress capacity to Factor times
	// the configured baseline. Factor 1 restores the original capacity;
	// fractions model a partial infrastructure loss. In-flight allocations
	// are kept — a collapse below current usage only starves new
	// reservations until usage drains under the shrunk cap.
	CDNCollapse
	// DelayShift rescales the propagation-delay landscape by Factor and
	// re-runs the delay-layer adaptation on every live shard; factors above
	// one push viewers toward deeper κ-layers and spike the adaptation-drop
	// counter.
	DelayShift
	// ProducerChurn models a producer-side glitch: every live shard re-runs
	// its periodic adaptation pass against the current landscape.
	ProducerChurn
)

// String names the fault kind for logs and plan dumps.
func (k Kind) String() string {
	switch k {
	case Snapshot:
		return "snapshot"
	case RegionOutage:
		return "region-outage"
	case RegionRecover:
		return "region-recover"
	case CDNCollapse:
		return "cdn-collapse"
	case DelayShift:
		return "delay-shift"
	case ProducerChurn:
		return "producer-churn"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Fault is one timed injection. Region is meaningful for Snapshot,
// RegionOutage, and RegionRecover; Factor for CDNCollapse and DelayShift.
type Fault struct {
	At     time.Duration
	Kind   Kind
	Region trace.Region
	Factor float64
}

// Injector executes faults against a live control plane. The session
// controller is the canonical implementation.
type Injector interface {
	Inject(ctx context.Context, f Fault) error
}

// Plan is a deterministic, time-ordered fault schedule.
type Plan struct {
	Name   string
	Faults []Fault
}

// Validate checks the plan's contract: nondecreasing times, positive factors
// where a factor is meaningful, and kill/recover alternation per region.
func (p Plan) Validate() error {
	open := make(map[trace.Region]bool)
	var last time.Duration
	for i, f := range p.Faults {
		if f.At < last {
			return fmt.Errorf("fault: plan %s: fault %d at %v precedes %v", p.Name, i, f.At, last)
		}
		last = f.At
		switch f.Kind {
		case CDNCollapse, DelayShift:
			if f.Factor <= 0 {
				return fmt.Errorf("fault: plan %s: fault %d (%v) needs a positive factor", p.Name, i, f.Kind)
			}
		case RegionOutage:
			if open[f.Region] {
				return fmt.Errorf("fault: plan %s: region %d killed twice without recovery", p.Name, f.Region)
			}
			open[f.Region] = true
		case RegionRecover:
			if !open[f.Region] {
				return fmt.Errorf("fault: plan %s: region %d recovered while up", p.Name, f.Region)
			}
			open[f.Region] = false
		}
	}
	for r, down := range open {
		if down {
			return fmt.Errorf("fault: plan %s: region %d left dead at plan end", p.Name, r)
		}
	}
	return nil
}

// OutageCycle generates cycles of snapshot → kill → recover against one
// region: cycle i snapshots at first+i·every−downFor/2 (clamped to ≥ 0),
// kills at first+i·every, and recovers downFor later. every must leave room
// for the previous recovery before the next snapshot (every ≥ 1.5·downFor).
func OutageCycle(region trace.Region, first, downFor, every time.Duration, cycles int) Plan {
	p := Plan{Name: fmt.Sprintf("outage(r%d)", region)}
	for i := 0; i < cycles; i++ {
		kill := first + time.Duration(i)*every
		snap := kill - downFor/2
		if snap < 0 {
			snap = 0
		}
		p.Faults = append(p.Faults,
			Fault{At: snap, Kind: Snapshot, Region: region},
			Fault{At: kill, Kind: RegionOutage, Region: region},
			Fault{At: kill + downFor, Kind: RegionRecover, Region: region},
		)
	}
	return p
}

// CDNCollapsePulse shrinks the CDN to factor× its baseline at `at` and
// restores the full capacity at `recoverAt`.
func CDNCollapsePulse(at, recoverAt time.Duration, factor float64) Plan {
	return Plan{
		Name: fmt.Sprintf("cdn-collapse(x%g)", factor),
		Faults: []Fault{
			{At: at, Kind: CDNCollapse, Factor: factor},
			{At: recoverAt, Kind: CDNCollapse, Factor: 1},
		},
	}
}

// DelayStorm scales the delay landscape by factor over [at, recoverAt).
func DelayStorm(at, recoverAt time.Duration, factor float64) Plan {
	return Plan{
		Name: fmt.Sprintf("delay-storm(x%g)", factor),
		Faults: []Fault{
			{At: at, Kind: DelayShift, Factor: factor},
			{At: recoverAt, Kind: DelayShift, Factor: 1},
		},
	}
}

// ProducerChurnBurst fires n adaptation passes, one every `every` starting
// at `first`.
func ProducerChurnBurst(first, every time.Duration, n int) Plan {
	p := Plan{Name: "producer-churn"}
	for i := 0; i < n; i++ {
		p.Faults = append(p.Faults, Fault{At: first + time.Duration(i)*every, Kind: ProducerChurn})
	}
	return p
}
