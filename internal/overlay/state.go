package overlay

import (
	"encoding/json"
	"fmt"
	"sort"

	"telecast/internal/model"
)

// Shard state export/restore: the serialization half of fault recovery.
//
// ShardState is a self-contained, slab-free description of one Manager: the
// admission counters, every group's view and per-stream tree topology, and
// every viewer record (admitted and rejected). It deliberately serializes
// *logical* state only — viewer IDs, parent edges in preorder, assigned
// κ-layers — never slot handles, SoA mirrors, level-index buckets, memo or
// intern caches: those are rebuilt from scratch by Manager.Restore through the
// same primitives the live admission path uses, so a restored shard's nodes
// are slab-born in fresh blocks. All slices are emitted in a canonical order
// (groups by key, trees by stream, viewers by ID, orientations by site), so
// Encode is deterministic and Export → Restore → Export is byte-identical —
// the property the golden round-trip test pins.

// OrientationState is one site's view direction, flattened for serialization.
type OrientationState struct {
	Site model.SiteID `json:"site"`
	X    float64      `json:"x"`
	Y    float64      `json:"y"`
	Z    float64      `json:"z"`
}

// NodeState is one overlay-tree node. Parent is the viewer ID of the node's
// parent in the same tree; empty means the node is a CDN root. Nodes appear
// in preorder (roots in attachment order, children in child-list order), so a
// parent always precedes its children and replaying attachments in slice
// order reproduces the exact Children/roots ordering.
type NodeState struct {
	Viewer model.ViewerID `json:"viewer"`
	Parent model.ViewerID `json:"parent,omitempty"`
	OutDeg int            `json:"outDeg"`
	OutCap float64        `json:"outCap"`
	Layer  int            `json:"layer"`
}

// TreeState is one stream's distribution tree.
type TreeState struct {
	Stream string      `json:"stream"` // model.StreamID.String(), parseable
	Nodes  []NodeState `json:"nodes"`
}

// GroupState is one view-equivalence group: the shared view request (as raw
// orientations — the ranked ViewRequest is recomposed deterministically on
// restore) and the group's trees. Memberless groups (every member rejected or
// departed mid-epoch) restore too; membership itself is derived from the
// viewer records.
type GroupState struct {
	Key   string             `json:"key"`
	View  []OrientationState `json:"view"`
	Trees []TreeState        `json:"trees"`
}

// StreamMbpsState is a per-stream float entry (OutAlloc).
type StreamMbpsState struct {
	Stream string  `json:"stream"`
	Mbps   float64 `json:"mbps"`
}

// StreamDegState is a per-stream integer entry (OutDeg).
type StreamDegState struct {
	Stream string `json:"stream"`
	Deg    int    `json:"deg"`
}

// ViewerState is one viewer record, admitted or rejected. Tree membership is
// not listed here — it is recovered by looking the viewer up in its group's
// restored trees. Node is ViewerInfo.Node, the latency-matrix index.
type ViewerState struct {
	ID           model.ViewerID     `json:"id"`
	InboundMbps  float64            `json:"inboundMbps"`
	OutboundMbps float64            `json:"outboundMbps"`
	Node         int                `json:"node,omitempty"`
	View         []OrientationState `json:"view"`
	GroupKey     string             `json:"groupKey"`
	InUsedMbps   float64            `json:"inUsedMbps"`
	Rejected     bool               `json:"rejected,omitempty"`
	OutAlloc     []StreamMbpsState  `json:"outAlloc,omitempty"`
	OutDeg       []StreamDegState   `json:"outDeg,omitempty"`
}

// ShardState is the full serializable state of one overlay shard.
type ShardState struct {
	StreamsRequested int           `json:"streamsRequested"`
	StreamsAccepted  int           `json:"streamsAccepted"`
	ViewersAdmitted  int           `json:"viewersAdmitted"`
	ViewersRejected  int           `json:"viewersRejected"`
	Groups           []GroupState  `json:"groups"`
	Viewers          []ViewerState `json:"viewers"`
}

// Encode serializes the state as canonical JSON. Field order is fixed by the
// struct definitions and slice order by ExportState, so equal states encode
// to equal bytes.
func (s *ShardState) Encode() ([]byte, error) {
	return json.Marshal(s)
}

// DecodeShardState parses bytes produced by Encode.
func DecodeShardState(data []byte) (*ShardState, error) {
	var s ShardState
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("overlay: decode shard state: %w", err)
	}
	return &s, nil
}

func orientationStates(v model.View) []OrientationState {
	out := make([]OrientationState, 0, len(v.Orientations))
	for site, dir := range v.Orientations {
		out = append(out, OrientationState{Site: site, X: dir.X, Y: dir.Y, Z: dir.Z})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// ModelView recomposes the viewer's serialized orientation set into a
// model.View, for callers rebuilding admission requests from a snapshot.
func (vs *ViewerState) ModelView() model.View {
	return viewFromStates(vs.View)
}

func viewFromStates(os []OrientationState) model.View {
	v := model.View{Orientations: make(map[model.SiteID]model.Vec3, len(os))}
	for _, o := range os {
		v.Orientations[o.Site] = model.Vec3{X: o.X, Y: o.Y, Z: o.Z}
	}
	return v
}

// requestIndex returns the priority position of a serialized stream ID in
// the request.
func requestIndex(req model.ViewRequest, stream string) (int, error) {
	sid, err := model.ParseStreamID(stream)
	if err != nil {
		return 0, err
	}
	for i, rs := range req.Streams {
		if rs.Stream.ID == sid {
			return i, nil
		}
	}
	return 0, fmt.Errorf("stream %v is not in the request", sid)
}

// growShares extends out with zero shares until index i exists.
func growShares(out []OutboundShare, i int) []OutboundShare {
	if i < len(out) {
		return out
	}
	return append(out, make([]OutboundShare, i+1-len(out))...)
}

// ExportState captures the manager's logical state. The caller must hold the
// shard's owner lock (or otherwise guarantee quiescence of this shard).
func (m *Manager) ExportState() *ShardState {
	st := &ShardState{
		StreamsRequested: m.streamsRequested,
		StreamsAccepted:  m.streamsAccepted,
		ViewersAdmitted:  m.viewersAdmitted,
		ViewersRejected:  m.viewersRejected,
	}

	groupKeys := make([]model.ViewKey, 0, len(m.groups))
	for k := range m.groups {
		groupKeys = append(groupKeys, k)
	}
	sort.Slice(groupKeys, func(i, j int) bool { return groupKeys[i] < groupKeys[j] })
	for _, k := range groupKeys {
		g := m.groups[k]
		gs := GroupState{Key: string(k), View: orientationStates(g.Request.View)}
		for _, t := range g.Trees { // already in stream order
			if t == nil {
				continue
			}
			ts := TreeState{Stream: t.Stream.ID.String(), Nodes: make([]NodeState, 0, t.Size())}
			var dfs func(parent model.ViewerID, n *Node)
			dfs = func(parent model.ViewerID, n *Node) {
				ts.Nodes = append(ts.Nodes, NodeState{
					Viewer: n.Viewer(),
					Parent: parent,
					OutDeg: t.deg(n),
					OutCap: t.store.cap[n.slot-1],
					Layer:  n.Layer,
				})
				for _, c := range n.Children {
					dfs(n.Viewer(), c)
				}
			}
			for _, r := range t.roots {
				dfs("", r)
			}
			gs.Trees = append(gs.Trees, ts)
		}
		st.Groups = append(st.Groups, gs)
	}

	viewerIDs := m.SortedViewerIDs()
	for _, id := range viewerIDs {
		v := m.viewers[id]
		vs := ViewerState{
			ID:           v.Info.ID,
			InboundMbps:  v.Info.InboundMbps,
			OutboundMbps: v.Info.OutboundMbps,
			Node:         v.Info.Node,
			View:         orientationStates(v.Request.View),
			GroupKey:     string(v.Group.Key),
			InUsedMbps:   v.InUsedMbps,
			Rejected:     v.Rejected,
		}
		// The shares are listed by stream ID, and only those of streams
		// that got an outbound unit: a stream the allocation passed over
		// holds the zero share and has no entry.
		order := make([]int, len(v.Out))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return v.Request.Streams[order[a]].Stream.ID.Less(v.Request.Streams[order[b]].Stream.ID)
		})
		for _, i := range order {
			sid, sh := v.Request.Streams[i].Stream.ID.String(), v.Out[i]
			if sh.Mbps != 0 {
				vs.OutAlloc = append(vs.OutAlloc, StreamMbpsState{Stream: sid, Mbps: sh.Mbps})
			}
			if sh.Deg != 0 {
				vs.OutDeg = append(vs.OutDeg, StreamDegState{Stream: sid, Deg: sh.Deg})
			}
		}
		st.Viewers = append(st.Viewers, vs)
	}
	return st
}

// Restore rebuilds an exported state into m, which must be fresh from
// NewManager: no viewer, no group. The viewer records are rebuilt first, so
// the propagation-delay function can resolve every viewer through
// Manager.Viewer while the trees are rebuilt. Tree topology is replayed
// through the same attachment primitives the admission path uses (NewNode,
// AttachToCDN, attachUnder), so slot handles, SoA columns, cached edges and
// level indexes are rebuilt from scratch; κ-layers are then pinned from the
// export and the delay chain recomputed root-down by the full walk (every
// edge re-derived, no early stop), which reproduces the exported
// MinE2E/EffE2E exactly because refreshNode never lowers a layer that still
// satisfies its d_max bound.
//
// CDN egress is re-reserved on the shared substrate for every restored root.
// This is strict: if the CDN cannot cover the snapshot's implied egress (a
// collapse shrank it since the snapshot), every reservation made so far is
// released and an error returned with the substrate unchanged — the caller
// discards m and falls back to replay-style re-admission, which degrades
// gracefully instead of over-committing.
func (m *Manager) Restore(st *ShardState) error {
	if len(m.viewers) != 0 || len(m.groups) != 0 {
		return fmt.Errorf("overlay restore: manager is not empty")
	}
	m.streamsRequested = st.StreamsRequested
	m.streamsAccepted = st.StreamsAccepted
	m.viewersAdmitted = st.ViewersAdmitted
	m.viewersRejected = st.ViewersRejected
	type grant struct {
		id   model.StreamID
		mbps float64
	}
	var granted []grant
	fail := func(err error) error {
		for _, g := range granted {
			_ = m.cdn.Release(g.id, g.mbps)
		}
		return err
	}

	for gi := range st.Groups {
		gs := &st.Groups[gi]
		req := m.composeView(viewFromStates(gs.View))
		if string(req.Key()) != gs.Key {
			return fail(fmt.Errorf("overlay restore: group key %q recomposes to %q", gs.Key, req.Key()))
		}
		m.groupFor(req)
	}

	for vi := range st.Viewers {
		vs := &st.Viewers[vi]
		req := m.composeView(viewFromStates(vs.View))
		if string(req.Key()) != vs.GroupKey {
			return fail(fmt.Errorf("overlay restore: viewer %s group key %q recomposes to %q", vs.ID, vs.GroupKey, req.Key()))
		}
		g := m.groups[req.Key()]
		if g == nil {
			// A rejected record can outlive its group; restore it with a
			// detached group object (not registered in m.groups), matching
			// the live structure after the last member departs.
			g = newGroup(req)
		}
		v := &Viewer{
			Info: ViewerInfo{ID: vs.ID, InboundMbps: vs.InboundMbps,
				OutboundMbps: vs.OutboundMbps, Node: vs.Node},
			Request:    req,
			Group:      g,
			InUsedMbps: vs.InUsedMbps,
			Rejected:   vs.Rejected,
		}
		// Out is aligned with the request's priority order. The export
		// lists only the shares of streams that got an outbound unit, so
		// the record is rebuilt as long as its last listed share or its
		// last node requires, with the zero share in between.
		for _, a := range vs.OutAlloc {
			i, err := requestIndex(req, a.Stream)
			if err != nil {
				return fail(fmt.Errorf("overlay restore: viewer %s: %w", vs.ID, err))
			}
			v.Out = growShares(v.Out, i)
			v.Out[i].Mbps = a.Mbps
		}
		for _, d := range vs.OutDeg {
			i, err := requestIndex(req, d.Stream)
			if err != nil {
				return fail(fmt.Errorf("overlay restore: viewer %s: %w", vs.ID, err))
			}
			v.Out = growShares(v.Out, i)
			v.Out[i].Deg = d.Deg
		}
		if !vs.Rejected {
			g.Members++
		}
		m.viewers[vs.ID] = v
	}

	// restored binds each rebuilt tree's nodes by viewer, for the viewer
	// records below.
	restored := make(map[*Tree]map[model.ViewerID]*Node)
	for gi := range st.Groups {
		gs := &st.Groups[gi]
		g := m.groups[model.ViewKey(gs.Key)]
		for ti := range gs.Trees {
			ts := &gs.Trees[ti]
			sid, err := model.ParseStreamID(ts.Stream)
			if err != nil {
				return fail(fmt.Errorf("overlay restore: group %q: %w", gs.Key, err))
			}
			s, ok := m.session.Stream(sid)
			if !ok {
				return fail(fmt.Errorf("overlay restore: group %q: unknown stream %v", gs.Key, sid))
			}
			pos := g.streamIndex(sid)
			if pos < 0 {
				return fail(fmt.Errorf("overlay restore: group %q: stream %v is not in its view", gs.Key, sid))
			}
			t := m.treeFor(g, pos, s)
			byViewer := make(map[model.ViewerID]*Node, len(ts.Nodes))
			restored[t] = byViewer
			for ni := range ts.Nodes {
				ns := &ts.Nodes[ni]
				v := m.viewers[ns.Viewer]
				if v == nil || v.Group != g || v.Info.OutboundMbps != ns.OutCap {
					return fail(fmt.Errorf("overlay restore: stream %v: node %s matches no record of its group", sid, ns.Viewer))
				}
				n := t.NewNode(v, ns.OutDeg)
				n.stream = int32(pos)
				if ns.Parent == "" {
					if err := m.cdn.Allocate(sid, s.BitrateMbps); err != nil {
						t.store.release(n)
						return fail(fmt.Errorf("overlay restore: stream %v root %s: %w", sid, ns.Viewer, err))
					}
					granted = append(granted, grant{id: sid, mbps: s.BitrateMbps})
					t.AttachToCDN(n)
				} else {
					p := byViewer[ns.Parent]
					if p == nil {
						t.store.release(n)
						return fail(fmt.Errorf("overlay restore: stream %v: node %s precedes parent %s", sid, ns.Viewer, ns.Parent))
					}
					if t.freeSlots(p) <= 0 {
						t.store.release(n)
						return fail(fmt.Errorf("overlay restore: stream %v: parent %s over out-degree", sid, ns.Parent))
					}
					t.attachUnder(p, n)
				}
				byViewer[ns.Viewer] = n
			}
			// Pin exported κ-layers top-down, then recompute the delay chain
			// once per root: parents refresh before children, so MinE2E sees
			// the parent's final EffE2E and the exported equilibrium holds.
			for ni := range ts.Nodes {
				byViewer[ts.Nodes[ni].Viewer].Layer = ts.Nodes[ni].Layer
			}
			for _, r := range t.roots {
				t.refreshFull(r)
			}
			t.settle()
		}
	}

	// Bind each record's restored nodes in its request's priority order,
	// the order Viewer.Nodes keeps.
	for vi := range st.Viewers {
		v := m.viewers[st.Viewers[vi].ID]
		g := v.Group
		for i, rs := range v.Request.Streams {
			t := g.Trees[g.streamIndex(rs.Stream.ID)]
			if n, ok := restored[t][v.Info.ID]; ok {
				v.Nodes = append(v.Nodes, n)
				v.Out = growShares(v.Out, i)
			}
		}
	}

	if err := m.Validate(); err != nil {
		return fail(fmt.Errorf("overlay restore: rebuilt shard fails validation: %w", err))
	}
	return nil
}
