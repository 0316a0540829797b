package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/layering"
	"telecast/internal/model"
	"telecast/internal/overlay"
)

// The ablations isolate the design choices the paper motivates but does not
// measure separately: the round-robin outbound allocation (Fig. 8's
// trade-off), the degree push-down, view grouping, and the two-phase view
// change.

// PolicyOutcome summarizes one policy at one sweep point.
type PolicyOutcome struct {
	// Acceptance is ρ; Admitted counts viewers that got in; MeanStreams
	// is the average number of accepted streams per admitted viewer (a
	// media-quality proxy). Fig. 8's trade-off is Admitted vs MeanStreams.
	Acceptance  float64
	Admitted    int
	MeanStreams float64
}

// AblationOutboundRow compares outbound-allocation policies at one outbound
// capacity: round-robin (the paper's), highest-priority-only ("A" in
// Fig. 8: few, high-quality copies), and equal split ("B": many viewers,
// degraded quality and sub-bitrate waste).
type AblationOutboundRow struct {
	OutboundMbps float64
	RoundRobin   PolicyOutcome
	PriorityOnly PolicyOutcome
	EqualSplit   PolicyOutcome
}

// priorityOnlyPolicy dedicates the outbound budget to the highest-priority
// stream of each site only ("if we assign outbound bandwidth to only the
// highest priority stream of each site, we can support maximum number of
// viewers but with lower media quality", Fig. 8).
func priorityOnlyPolicy(accepted []model.RankedStream, outboundMbps float64) overlay.OutboundAllocation {
	alloc := overlay.OutboundAllocation{Shares: make([]overlay.OutboundShare, len(accepted))}
	var tops []int // positions in accepted of the site-top streams
	seen := make(map[model.SiteID]bool)
	for i, rs := range accepted { // priority order ⇒ first per site is top
		if !seen[rs.Stream.ID.Site] {
			seen[rs.Stream.ID.Site] = true
			tops = append(tops, i)
		}
	}
	// Round-robin across the site-top streams only.
	for {
		progress := false
		for _, i := range tops {
			bw := accepted[i].Stream.BitrateMbps
			if alloc.UsedMbps+bw <= outboundMbps+1e-9 {
				alloc.Shares[i].Mbps += bw
				alloc.Shares[i].Deg++
				alloc.UsedMbps += bw
				progress = true
			}
		}
		if !progress {
			return alloc
		}
	}
}

// equalSplitPolicy divides the budget evenly across accepted streams,
// wasting each stream's sub-bitrate remainder.
func equalSplitPolicy(accepted []model.RankedStream, outboundMbps float64) overlay.OutboundAllocation {
	alloc := overlay.OutboundAllocation{Shares: make([]overlay.OutboundShare, len(accepted))}
	if len(accepted) == 0 {
		return alloc
	}
	share := outboundMbps / float64(len(accepted))
	for i, rs := range accepted {
		deg := int(share / rs.Stream.BitrateMbps)
		if deg <= 0 {
			continue
		}
		mbps := float64(deg) * rs.Stream.BitrateMbps
		alloc.Shares[i] = overlay.OutboundShare{Mbps: mbps, Deg: deg}
		alloc.UsedMbps += mbps
	}
	return alloc
}

// newAblationManager builds a bare overlay manager (no session layer) with
// the evaluation geometry and a deterministic latency assignment.
func (s Setup) newAblationManager(cdnCapMbps float64) (*overlay.Manager, *model.Session, error) {
	producers, err := s.producers()
	if err != nil {
		return nil, nil, err
	}
	mgr, err := s.buildManager(producers, cdnCapMbps, nil)
	if err != nil {
		return nil, nil, err
	}
	return mgr, producers, nil
}

// buildManager assembles the bare manager; offsetFrac overrides the layer
// push-down offset when non-nil (ablation A3).
func (s Setup) buildManager(producers *model.Session, cdnCapMbps float64, offsetFrac *float64) (*overlay.Manager, error) {
	dist := cdn.New(cdn.Config{OutboundCapacityMbps: cdnCapMbps, Delta: evalDelta})
	h, err := layering.NewHierarchy(evalDelta, 300*time.Millisecond, 65*time.Second, 2)
	if err != nil {
		return nil, err
	}
	lat, err := s.latency()
	if err != nil {
		return nil, err
	}
	prop := func(a, b model.ViewerID) time.Duration {
		return lat.Delay(idHash(a, lat.Nodes()), idHash(b, lat.Nodes()))
	}
	return overlay.NewManager(producers, dist, prop, overlay.Params{
		Hierarchy:          h,
		Proc:               100 * time.Millisecond,
		CutoffDF:           s.CutoffDF,
		PushdownOffsetFrac: offsetFrac,
	})
}

// runPolicyScenario joins n viewers under an optional custom outbound
// policy; nil keeps the paper's round-robin.
func (s Setup) runPolicyScenario(n int, obw OutboundSpec, cdnCap float64, policy overlay.OutboundPolicy) (PolicyOutcome, error) {
	mgr, producers, err := s.newAblationManager(cdnCap)
	if err != nil {
		return PolicyOutcome{}, err
	}
	if policy != nil {
		mgr.SetOutboundPolicy(policy)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	admitted, totalStreams := 0, 0
	for i := 0; i < n; i++ {
		view := model.NewUniformView(producers, s.ViewAngles[i%len(s.ViewAngles)])
		info := overlay.ViewerInfo{
			ID:           model.ViewerID(fmt.Sprintf("v%05d", i)),
			InboundMbps:  s.InboundMbps,
			OutboundMbps: obw.Draw(rng),
		}
		res, err := mgr.Join(info, view)
		if err != nil {
			return PolicyOutcome{}, err
		}
		if res.Admitted {
			admitted++
			totalStreams += len(res.Accepted)
		}
	}
	if err := mgr.Validate(); err != nil {
		return PolicyOutcome{}, fmt.Errorf("ablation invariants: %w", err)
	}
	snap := mgr.Snapshot()
	out := PolicyOutcome{Acceptance: snap.AcceptanceRatio(), Admitted: admitted}
	if admitted > 0 {
		out.MeanStreams = float64(totalStreams) / float64(admitted)
	}
	return out, nil
}

// RunAblationOutbound sweeps outbound capacity and compares the three
// allocation policies, quantifying the Fig. 8 trade-off.
func RunAblationOutbound(setup Setup) ([]AblationOutboundRow, error) {
	var rows []AblationOutboundRow
	for _, obw := range []float64{2, 4, 6, 8} {
		spec := FixedObw(obw)
		rr, err := setup.runPolicyScenario(setup.Audience, spec, 2000, nil)
		if err != nil {
			return nil, fmt.Errorf("ablation outbound rr obw=%v: %w", obw, err)
		}
		po, err := setup.runPolicyScenario(setup.Audience, spec, 2000, priorityOnlyPolicy)
		if err != nil {
			return nil, fmt.Errorf("ablation outbound po obw=%v: %w", obw, err)
		}
		eq, err := setup.runPolicyScenario(setup.Audience, spec, 2000, equalSplitPolicy)
		if err != nil {
			return nil, fmt.Errorf("ablation outbound eq obw=%v: %w", obw, err)
		}
		rows = append(rows, AblationOutboundRow{
			OutboundMbps: obw, RoundRobin: rr, PriorityOnly: po, EqualSplit: eq,
		})
	}
	return rows, nil
}

// AblationPushdownRow compares degree push-down against FIFO attachment (a
// joiner only ever fills free slots, never displaces) at one audience size.
type AblationPushdownRow struct {
	Viewers  int
	PushDown PolicyOutcome
	FIFO     PolicyOutcome
	// MeanDepth contrasts tree shapes: push-down yields flatter trees.
	PushDownDepth float64
	FIFODepth     float64
}

// RunAblationPushdown measures what the degree push-down buys. Insertion
// order is adversarial-ish (heterogeneous outbound draws), so FIFO strands
// high-degree viewers in the leaves.
func RunAblationPushdown(setup Setup) ([]AblationPushdownRow, error) {
	var rows []AblationPushdownRow
	for _, n := range []int{200, 600, 1000} {
		row := AblationPushdownRow{Viewers: n}
		for _, fifo := range []bool{false, true} {
			mgr, producers, err := setup.newAblationManager(2000)
			if err != nil {
				return nil, err
			}
			mgr.SetFIFOAttachment(fifo)
			rng := rand.New(rand.NewSource(setup.Seed))
			spec := UniformObw(0, 12)
			admitted, totalStreams := 0, 0
			for i := 0; i < n; i++ {
				view := model.NewUniformView(producers, setup.ViewAngles[i%len(setup.ViewAngles)])
				info := overlay.ViewerInfo{
					ID:           model.ViewerID(fmt.Sprintf("v%05d", i)),
					InboundMbps:  setup.InboundMbps,
					OutboundMbps: spec.Draw(rng),
				}
				res, err := mgr.Join(info, view)
				if err != nil {
					return nil, err
				}
				if res.Admitted {
					admitted++
					totalStreams += len(res.Accepted)
				}
			}
			if err := mgr.Validate(); err != nil {
				return nil, fmt.Errorf("ablation pushdown invariants: %w", err)
			}
			out := PolicyOutcome{Acceptance: mgr.Snapshot().AcceptanceRatio(), Admitted: admitted}
			if admitted > 0 {
				out.MeanStreams = float64(totalStreams) / float64(admitted)
			}
			depth := mgr.MeanTreeDepth()
			if fifo {
				row.FIFO, row.FIFODepth = out, depth
			} else {
				row.PushDown, row.PushDownDepth = out, depth
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationGroupingRow reports how view diversity stresses the grouped
// topology: each view's seeds only serve that view, so CDN dependence grows
// with the number of distinct views.
type AblationGroupingRow struct {
	DistinctViews int
	Acceptance    float64
	CDNFraction   float64
}

// RunAblationGrouping sweeps the number of distinct views at a fixed
// audience and CDN budget.
func RunAblationGrouping(setup Setup) ([]AblationGroupingRow, error) {
	var rows []AblationGroupingRow
	for _, k := range []int{1, 2, 4, 8} {
		s := setup
		s.ViewAngles = make([]float64, k)
		for i := range s.ViewAngles {
			s.ViewAngles[i] = 2 * math.Pi * float64(i) / float64(k)
		}
		stats, err := s.runScenario(s.Audience, UniformObw(0, 12), 6000)
		if err != nil {
			return nil, fmt.Errorf("ablation grouping k=%d: %w", k, err)
		}
		rows = append(rows, AblationGroupingRow{
			DistinctViews: k,
			Acceptance:    stats.Overlay.AcceptanceRatio(),
			CDNFraction:   stats.Overlay.CDNFraction(),
		})
	}
	return rows, nil
}

// idHash maps a viewer ID to a stable latency-matrix index for the
// bare-manager ablations, which bypass the session layer's placement.
func idHash(id model.ViewerID, n int) int {
	h := 0
	for _, c := range string(id) {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return h % n
}
