// Package overlay implements the multi-stream overlay construction of §IV:
// priority-based inbound bandwidth allocation, round-robin outbound
// allocation, the degree push-down topology formation (Algorithm 1),
// per-view-group streaming trees rooted at the CDN, and the victim-recovery
// and delay-layer-adaptation procedures of §VI. View synchronization state
// (delay layers, effective delays after delayed receive) is maintained here
// too, using the pure layer geometry from internal/layering.
package overlay

import (
	"slices"
	"sync/atomic"
	"time"

	"telecast/internal/layering"
	"telecast/internal/model"
)

// PropFunc returns the one-way propagation delay d_prop between two viewers.
// The manager calls it only for viewers it holds a record of, so an
// implementation can resolve the IDs through Manager.Viewer (the session
// layer reads each record's ViewerInfo.Node) instead of keeping a registry
// of its own.
type PropFunc func(a, b model.ViewerID) time.Duration

// Params collects the session-wide overlay constants.
type Params struct {
	// Hierarchy is the delay-layer geometry (Δ, d_buff, κ, d_max).
	Hierarchy layering.Hierarchy
	// Proc is δ, the per-hop processing delay inside a forwarding viewer.
	Proc time.Duration
	// CutoffDF is df_th, the stream differentiation cut-off applied when
	// composing views.
	CutoffDF float64
	// PushdownOffsetFrac is ℜ/(τr) ∈ [0,1]: where inside a layer a
	// pushed-down viewer positions itself. The paper uses 1 (the top of
	// the layer, lowest delay) so push-downs fade out in subsequent
	// children (§V-B3); 0 is the naive bottom-of-layer placement the A3
	// ablation contrasts against. The zero value means 1 so that
	// existing configurations keep the paper's behaviour.
	PushdownOffsetFrac *float64
	// LogDrops makes the manager record every stream subscription it has
	// to drop (delay-layer adaptation, failed victim recovery) so the
	// session layer can drain them with DrainDrops and surface them as
	// events. Off by default: direct Manager users pay nothing.
	LogDrops bool
	// TimeReserve, when non-nil and true, makes the admission pipeline
	// time its CDN egress reserves (the only cross-shard contention on
	// the hot path) and report the total in JoinResult.CDNReserve. The
	// session layer points this at the telemetry enable gate, so the
	// check costs one atomic load when telemetry is off — the same idiom
	// as the event bus's Subscribe gate.
	TimeReserve *atomic.Bool
}

// offsetFrac resolves the configured push-down offset (default 1).
func (p Params) offsetFrac() float64 {
	if p.PushdownOffsetFrac == nil {
		return 1
	}
	f := *p.PushdownOffsetFrac
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// ViewerInfo describes a joining viewer's identity, resource constraints
// and place in the latency substrate. The record's Info is the only copy of
// these facts in the control plane: nodes point at the record, and the
// session layer resolves propagation delays through it.
type ViewerInfo struct {
	ID model.ViewerID
	// InboundMbps is C^u_ibw, the viewer's total inbound capacity.
	InboundMbps float64
	// OutboundMbps is C^u_obw, the total outbound capacity the viewer
	// contributes to the P2P layer.
	OutboundMbps float64
	// Node is the viewer's latency-matrix node index. The overlay never
	// reads it; it carries it so that a PropFunc can, and so that
	// snapshots and migrations keep it.
	Node int
}

// Node is a viewer's position in one stream's dissemination tree. A nil
// Parent means the node is a direct child of the CDN. Nodes are born only
// from their tree's slab (Tree.NewNode) and keep no copy of their viewer's
// facts: a node points at the record that owns it (Viewer and Owner read
// it), and its out-degree and out capacity live only in the slab's deg and
// cap columns, which the admission index reads.
type Node struct {
	// owner is the viewer record whose Nodes hold this node; nil only for
	// a recycled slot.
	owner    *Viewer
	Parent   *Node
	Children []*Node

	// MinE2E is the lowest end-to-end delay the overlay path allows:
	// parent's effective delay + d_prop + δ (Δ for CDN children).
	MinE2E time.Duration
	// Layer is the assigned delay layer after stream subscription; it is
	// at least LayerOf(MinE2E) and may be larger after layer push-down.
	Layer int
	// EffE2E is the effective delay at the assigned layer: the delay at
	// which frames are actually received after delayed receive. Children
	// inherit their MinE2E from this value (Layer Property 1).
	EffE2E time.Duration

	// slot is the node's 1-based binding into the owning tree's slab
	// (slab.go); 0 means the slot is free. The admission-index
	// bookkeeping — depth, heap position, root position — sits in the
	// store's SoA arrays at slot-1, together with the out-degree and out
	// capacity and a dense mirror of EffE2E, so the index's heap sifts
	// compare inside contiguous memory. A node belongs to exactly one
	// tree, so one slot suffices.
	slot int32
	// stream is the position of the node's tree in its group's Trees,
	// which is its stream's position in the group's sorted stream set:
	// the manager reaches a node's tree through it without hashing the
	// stream ID. It sits in the padding after slot.
	stream int32
}

// Viewer returns the ID of the viewer that owns the node.
func (n *Node) Viewer() model.ViewerID { return n.owner.Info.ID }

// Owner returns the viewer record that owns the node.
func (n *Node) Owner() *Viewer { return n.owner }

// Viewer is the overlay-side record of a connected viewer.
type Viewer struct {
	Info    ViewerInfo
	Request model.ViewRequest
	Group   *Group
	// Nodes holds the viewer's tree position per accepted stream, in the
	// request's priority order and with no nil entry: Nodes[i] is the
	// node of AcceptedStreams()[i], and its tree is
	// Group.Trees[Nodes[i].stream].
	Nodes []*Node
	// Out is the outbound allocation of the join, aligned with the
	// streams its inbound allocation accepted. Those are a prefix of the
	// request (AllocateInbound), so Out[i] is the share of
	// Request.Streams[i]. A later drop does not shrink it: a dropped
	// stream keeps the share it was granted. nil for a record refused
	// before the outbound allocation ran.
	Out []OutboundShare
	// InUsedMbps is the inbound bandwidth consumed by accepted streams.
	InUsedMbps float64
	// Rejected records that admission failed (the viewer stays known so
	// that experiments can report it in distributions).
	Rejected bool

	// pending marks a record queued on the manager's subscription
	// worklist (subscribe.go).
	pending bool
}

// AcceptedStreams returns the viewer's currently accepted stream IDs in
// request priority order, aligned with Nodes.
func (v *Viewer) AcceptedStreams() []model.StreamID {
	ids := make([]model.StreamID, len(v.Nodes))
	for i, n := range v.Nodes {
		ids[i] = v.Group.ids[n.stream]
	}
	return ids
}

// MaxAssignedLayer returns the highest delay layer among the viewer's
// accepted streams (the quantity Fig 14(a) plots) and false when the viewer
// has no accepted streams.
func (v *Viewer) MaxAssignedLayer() (int, bool) {
	maxLayer, any := 0, false
	for _, n := range v.Nodes {
		if !any || n.Layer > maxLayer {
			maxLayer = n.Layer
		}
		any = true
	}
	return maxLayer, any
}

// Group is a view group: the set of viewers that requested the same stream
// set. Topologies are formed separately per group so popular views pool
// their seed capacity without interference from unpopular ones (§III-B).
type Group struct {
	Key     model.ViewKey
	Request model.ViewRequest
	// Trees holds one tree per stream of the group, aligned with the
	// group's stream set in sorted StreamID order (the order the Key
	// lists them in). An entry is nil until a member's admission first
	// reaches that stream.
	Trees []*Tree
	// Members counts the admitted records of the group. The records
	// themselves are listed once, in Manager.viewers.
	Members int
	// Sites are the distinct producer sites of the request in sorted
	// order, derived once so per-join coverage checks allocate nothing.
	Sites []model.SiteID

	// ids is the group's stream set in sorted order: ids[i] is the
	// stream of Trees[i]. Read-only after newGroup.
	ids []model.StreamID
}

// newGroup builds the empty view group of a request.
func newGroup(req model.ViewRequest) *Group {
	ids := req.StreamIDs()
	slices.SortFunc(ids, model.StreamID.Compare)
	g := &Group{
		Key:     req.Key(),
		Request: req,
		Trees:   make([]*Tree, len(ids)),
		ids:     ids,
	}
	for _, id := range ids {
		if n := len(g.Sites); n == 0 || g.Sites[n-1] != id.Site {
			g.Sites = append(g.Sites, id.Site)
		}
	}
	return g
}

// settle writes every heap key its trees' delay refreshes deferred
// (Tree.settle). A subscription drain stays inside one group — it queues
// only the owners of nodes in the trees it changes — so settling the
// groups an operation touched leaves the whole manager settled.
func (g *Group) settle() {
	for _, t := range g.Trees {
		if t != nil {
			t.settle()
		}
	}
}

// streamIndex returns the position of a stream in the group's stream set,
// or -1 when the group does not carry it.
func (g *Group) streamIndex(id model.StreamID) int {
	i, found := slices.BinarySearchFunc(g.ids, id, model.StreamID.Compare)
	if !found {
		return -1
	}
	return i
}
