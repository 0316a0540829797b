package session

import (
	"fmt"
	"time"

	"telecast/internal/model"
	"telecast/internal/trace"
)

// This file implements the §VI adaptation loop beyond view changes: the
// periodic delay-layer adaptation against network dynamism and the Eq. 2
// subscription-point computation that positions each viewer inside its
// assigned layer.

// AdaptDelays re-evaluates every streaming tree against the current
// propagation delays (the paper's "viewers also periodically monitor the
// end-to-end delay of all streams in the requested view and update their
// layer indexes accordingly"). Layer violations trigger the usual delay
// layer adaptation — CDN re-provisioning or subscription drops — and
// viewers whose parents moved up move up with them. It returns the number
// of viewers whose layer assignment changed. Shards adapt one at a time;
// each shard's refresh runs under its own lock.
func (c *Controller) AdaptDelays() int {
	changed := 0
	for _, lsc := range c.lscs {
		changed += lsc.RefreshAll()
	}
	return changed
}

// AttachMonitor installs the GSC monitoring component so that subscription
// points can be computed against live producer metadata. Every LSC receives
// its own shard-local reader, so status queries from different regions never
// contend on shared state.
func (c *Controller) AttachMonitor(m *Monitor) {
	c.monitor.Store(m)
	for _, lsc := range c.lscs {
		lsc.mon.Store(m.Reader())
	}
}

// Monitor returns the attached monitoring component, if any.
func (c *Controller) Monitor() *Monitor { return c.monitor.Load() }

// SubscriptionPoint is one stream's computed delayed-receive position.
type SubscriptionPoint struct {
	Stream model.StreamID
	// Layer is the viewer's assigned delay layer for the stream.
	Layer int
	// FromFrame is n′ of Eq. 2: the frame number the parent should serve
	// from so the viewer lands at the top of its layer.
	FromFrame int64
	// Parent is the serving node ("" for the CDN).
	Parent model.ViewerID
}

// SubscriptionPoints evaluates Eq. 2 for every accepted stream of a viewer:
//
//	n′ = n − (Δ + (x+1)τ)·r + (d_prop + δ)·r + d_prop·r + ℜ,  ℜ = τr
//
// with n and r taken from the GSC monitor, x the assigned layer, d_prop the
// propagation delay to the parent, and δ the parent processing delay. The
// ℜ = τr offset positions the viewer at the top of the layer so push-downs
// fade out in subsequent children (§V-B3).
func (c *Controller) SubscriptionPoints(id model.ViewerID) ([]SubscriptionPoint, error) {
	lsc, err := c.lookupRoute(id)
	if err != nil {
		return nil, fmt.Errorf("subscription points %s: %w", id, err)
	}
	mon := lsc.mon.Load()
	if mon == nil {
		return nil, fmt.Errorf("subscription points %s: %w", id, ErrNoMonitor)
	}
	points, err := lsc.subscriptionPoints(id, mon, c.cfg.Producers, c.cfg.Proc)
	if err != nil {
		return nil, fmt.Errorf("subscription points %s: %w", id, err)
	}
	return points, nil
}

// subscriptionPoints computes a viewer's Eq. 2 positions on its owning
// shard, holding the shard lock so tree positions cannot move mid-read.
// Producer metadata comes through the shard-local monitor reader.
func (l *LSC) subscriptionPoints(id model.ViewerID, mon *MonitorReader, producers *model.Session, proc time.Duration) ([]SubscriptionPoint, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.shard.Viewer(id)
	if !ok {
		return nil, fmt.Errorf("not in overlay")
	}
	hier := l.shard.Params().Hierarchy
	points := make([]SubscriptionPoint, 0, len(v.Nodes))
	for i, sid := range v.AcceptedStreams() {
		node := v.Nodes[i]
		status, err := mon.Status(sid)
		if err != nil {
			return nil, err
		}
		stream, _ := producers.Stream(sid)
		var parent model.ViewerID
		var dprop time.Duration
		if p := node.Parent; p != nil {
			parent = p.Viewer()
			dprop = l.cfg.Latency.Delay(v.Info.Node, p.Owner().Info.Node)
		} else {
			// CDN parents are served by the edge co-located with the
			// viewer's LSC.
			dprop = l.cfg.Latency.Delay(v.Info.Node, l.NodeIdx)
		}
		from := hier.SubscriptionFrame(status.LatestFrame, node.Layer,
			stream.FrameRate, dprop, proc, 1)
		points = append(points, SubscriptionPoint{
			Stream:    sid,
			Layer:     node.Layer,
			FromFrame: from,
			Parent:    parent,
		})
	}
	return points, nil
}

// DumpOverlay renders every LSC's dissemination trees (Fig. 7(b) style) for
// operator inspection, in region order.
func (c *Controller) DumpOverlay() string {
	var b []byte
	for r := 0; r < c.cfg.Latency.NumRegions(); r++ {
		lsc, ok := c.lscs[trace.Region(r)]
		if !ok {
			continue
		}
		dump := lsc.DumpTrees()
		if dump == "" {
			continue
		}
		b = append(b, fmt.Sprintf("LSC region %d:\n", r)...)
		b = append(b, dump...)
	}
	return string(b)
}
