package overlay

import (
	"telecast/internal/cdn"
	"telecast/internal/model"
)

// Snapshot is a point-in-time summary of the overlay, carrying exactly the
// quantities the paper's evaluation plots (§VII).
type Snapshot struct {
	// Viewers counts all known viewers including rejected ones.
	Viewers int
	// Admitted and Rejected are cumulative admission counts.
	Admitted int
	Rejected int
	// StreamsRequested and StreamsAccepted are cumulative over all join
	// and view-change requests; their ratio is the acceptance ratio ρ.
	StreamsRequested int
	StreamsAccepted  int
	// LiveStreams counts currently served stream subscriptions.
	LiveStreams int
	// ViaCDN counts live subscriptions whose parent is the CDN; ViaP2P
	// counts those served by another viewer. Their ratio over LiveStreams
	// is Fig 13(b)'s "fraction of streams served by CDN".
	ViaCDN int
	ViaP2P int
	// CDNUsage carries the capacity accounting, including the peak egress
	// Fig 13(a) reports.
	CDNUsage cdn.Usage
	// MaxLayerPerViewer is the distribution behind Fig 14(a): for every
	// admitted viewer with at least one stream, the maximum assigned
	// delay layer across its accepted streams.
	MaxLayerPerViewer []int
	// AcceptedPerViewer is the distribution behind Fig 14(b): the number
	// of currently served streams per known viewer (0 for rejected).
	AcceptedPerViewer []int
	// Groups counts live view groups.
	Groups int
	// ResubscribeExhausted counts the operations whose stream-subscription
	// propagation ran out of budget with viewers still queued, each of
	// which may have left a κ-spread violation behind.
	ResubscribeExhausted int
}

// AcceptanceRatio returns ρ = N_accepted / N_total (1 when nothing was
// requested yet).
func (s Snapshot) AcceptanceRatio() float64 {
	if s.StreamsRequested == 0 {
		return 1
	}
	return float64(s.StreamsAccepted) / float64(s.StreamsRequested)
}

// CDNFraction returns the fraction of live stream subscriptions served
// directly by the CDN (1 when nothing is live).
func (s Snapshot) CDNFraction() float64 {
	if s.LiveStreams == 0 {
		return 1
	}
	return float64(s.ViaCDN) / float64(s.LiveStreams)
}

// Snapshot summarizes the current overlay state.
func (m *Manager) Snapshot() Snapshot {
	s := Snapshot{
		Viewers:          len(m.viewers),
		Admitted:         m.viewersAdmitted,
		Rejected:         m.viewersRejected,
		StreamsRequested: m.streamsRequested,
		StreamsAccepted:  m.streamsAccepted,
		CDNUsage:         m.cdn.Snapshot(),
		Groups:           len(m.groups),

		ResubscribeExhausted: m.resubscribeExhausted,
	}
	for _, id := range m.SortedViewerIDs() {
		v := m.viewers[id]
		s.AcceptedPerViewer = append(s.AcceptedPerViewer, len(v.Nodes))
		if maxLayer, ok := v.MaxAssignedLayer(); ok {
			s.MaxLayerPerViewer = append(s.MaxLayerPerViewer, maxLayer)
		}
		for _, n := range v.Nodes {
			s.LiveStreams++
			if n.Parent == nil {
				s.ViaCDN++
			} else {
				s.ViaP2P++
			}
		}
	}
	return s
}

// QuickSnapshot is the counters-only summary the periodic samplers take:
// Snapshot's scalar fields without the sorted per-viewer distributions and
// without the CDN usage copy (the session controller reads the shared
// substrate once, globally). A wall-clock executor sampling every simulated
// second must not pay an O(n log n) viewer sort per shard per sample.
func (m *Manager) QuickSnapshot() Snapshot {
	s := Snapshot{
		Viewers:          len(m.viewers),
		Admitted:         m.viewersAdmitted,
		Rejected:         m.viewersRejected,
		StreamsRequested: m.streamsRequested,
		StreamsAccepted:  m.streamsAccepted,
		Groups:           len(m.groups),

		ResubscribeExhausted: m.resubscribeExhausted,
	}
	for _, v := range m.viewers {
		for _, n := range v.Nodes {
			s.LiveStreams++
			if n.Parent == nil {
				s.ViaCDN++
			} else {
				s.ViaP2P++
			}
		}
	}
	return s
}

// Validate checks every structural invariant of the overlay: tree shape,
// per-node degree bounds, CDN accounting consistency, viewer/tree agreement
// (every bound node owned by the member record that binds it), registration
// of every viewer record, the empty subscription worklist, the spare node
// stores, the κ bound per viewer, and the d_max bound per node. Tests and
// the experiment harness call it after bulk operations; it returns the
// first violation found.
func (m *Manager) Validate() error {
	if err := m.validateRecords(); err != nil {
		return err
	}
	cdnMbps := make(map[model.StreamID]float64)
	for _, g := range m.groups {
		if err := validateStreamIndex(g); err != nil {
			return err
		}
		for i, tree := range g.Trees {
			if tree == nil {
				continue
			}
			if err := m.validateOwners(g, i, tree); err != nil {
				return err
			}
			if err := tree.validate(); err != nil {
				return err
			}
			for range tree.Roots() {
				cdnMbps[tree.Stream.ID] += tree.Stream.BitrateMbps
			}
		}
	}
	for vid, v := range m.viewers {
		if v.Rejected {
			continue
		}
		if err := m.validateViewer(vid, v); err != nil {
			return err
		}
		if err := validateOutbound(vid, v); err != nil {
			return err
		}
	}
	if err := m.validateSpares(); err != nil {
		return err
	}
	// The CDN is shared with other managers (one per LSC), so this
	// manager's trees give a lower bound on the per-stream accounting;
	// the session controller checks exact global equality.
	usage := m.cdn.Snapshot()
	for id, want := range cdnMbps {
		if usage.PerStreamMbps[id] < want-1e-6 {
			return errCDNAccounting(id.String(), usage.PerStreamMbps[id], want)
		}
	}
	return nil
}

// CDNImplied returns the per-stream CDN egress implied by this manager's
// trees: bitrate × number of direct CDN children. The session controller
// sums it across LSCs to check global accounting.
func (m *Manager) CDNImplied() map[model.StreamID]float64 {
	implied := make(map[model.StreamID]float64)
	for _, g := range m.groups {
		for _, tree := range g.Trees {
			if tree != nil {
				implied[tree.Stream.ID] += float64(len(tree.Roots())) * tree.Stream.BitrateMbps
			}
		}
	}
	return implied
}

// validateViewer checks a member record against its group's trees: each of
// its Nodes is bound by the tree its stream index names, the streams
// appear strictly in the request's priority order (so none repeats), the
// layers span at most κ, and the accepted bitrate fits the inbound
// capacity.
func (m *Manager) validateViewer(vid model.ViewerID, v *Viewer) error {
	h := m.params.Hierarchy
	g := v.Group
	lo, hi := 1<<30, -1
	var inUse float64
	next := 0 // cursor into the request's priority order
	for _, n := range v.Nodes {
		if n == nil || n.stream < 0 || int(n.stream) >= len(g.Trees) {
			return errRecordDrift(string(vid), "node without a valid stream index")
		}
		id := g.ids[n.stream]
		tree := g.Trees[n.stream]
		if tree == nil || !tree.binds(v, n) {
			return errViewerTreeMismatch(string(vid), id.String())
		}
		for next < len(v.Request.Streams) && v.Request.Streams[next].Stream.ID != id {
			next++
		}
		if next == len(v.Request.Streams) {
			return errRecordDrift(string(vid), "nodes out of request priority order")
		}
		next++
		inUse += tree.Stream.BitrateMbps
		if n.Layer < lo {
			lo = n.Layer
		}
		if n.Layer > hi {
			hi = n.Layer
		}
	}
	if hi >= 0 && hi-lo > h.Kappa {
		return errKappaBound(string(vid), hi-lo, h.Kappa)
	}
	if inUse > v.Info.InboundMbps+1e-6 {
		return errInboundBound(string(vid), inUse, v.Info.InboundMbps)
	}
	return nil
}

// validateOutbound checks a member's outbound record (Viewer.Out, aligned
// with the request's priority order): it spans no more than the request
// and covers every stream the viewer holds a node in, each node's
// out-degree is the one its share grants, no node has more children than
// that, and the shares fit the outbound capacity.
func validateOutbound(vid model.ViewerID, v *Viewer) error {
	if len(v.Out) > len(v.Request.Streams) {
		return errRecordDrift(string(vid), "outbound record longer than its request")
	}
	next := 0 // cursor into the request's priority order (validateViewer proved it)
	for _, n := range v.Nodes {
		id := v.Group.ids[n.stream]
		for next < len(v.Request.Streams) && v.Request.Streams[next].Stream.ID != id {
			next++
		}
		if next >= len(v.Out) {
			return errRecordDrift(string(vid), "node beyond its outbound record")
		}
		deg := v.Out[next].Deg
		if v.Group.Trees[n.stream].deg(n) != deg {
			return errRecordDrift(string(vid), "node out-degree off its outbound share")
		}
		if len(n.Children) > deg {
			return errOverDegree(string(vid), len(n.Children), deg)
		}
		next++
	}
	var outUse float64
	for _, sh := range v.Out {
		outUse += sh.Mbps
	}
	if outUse > v.Info.OutboundMbps+1e-6 {
		return errOutboundBound(string(vid), outUse, v.Info.OutboundMbps)
	}
	return nil
}
