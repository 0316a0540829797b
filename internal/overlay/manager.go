package overlay

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/model"
)

// Manager owns the overlay state of one 3DTI session shard: view groups,
// one dissemination tree per (group, stream), viewer records, and the CDN
// capacity accounting. It implements the LSC-side overlay construction
// (bandwidth allocation + topology formation, §IV) and the adaptation
// procedures (§VI). The Manager is deliberately not safe for concurrent
// use: it is the single-owner core behind the Shard interface — each
// session-layer LSC owns one Manager and serializes every call through its
// shard lock, so region shards run in parallel while the Manager itself
// stays lock-free. The only cross-shard state it touches is the CDN, which
// synchronizes internally.
type Manager struct {
	session *model.Session
	cdn     *cdn.CDN
	prop    PropFunc
	params  Params

	groups  map[model.ViewKey]*Group
	viewers map[model.ViewerID]*Viewer

	// outboundPolicy replaces AllocateOutbound when set (ablations).
	outboundPolicy OutboundPolicy
	// fifoAttachment disables degree push-down displacement when true:
	// joiners only fill free slots (ablation A2).
	fifoAttachment bool

	// Cumulative acceptance accounting for ρ (§IV-A).
	streamsRequested int
	streamsAccepted  int
	viewersRejected  int
	viewersAdmitted  int

	// Subscription worklist: viewers whose nodes' delay state changed
	// and that need a stream-subscription pass (subscribe.go).
	// pendingQ[pendingHead:] is the unprocessed part of the queue; a
	// queued record has its pending flag set.
	pendingQ    []*Viewer
	pendingHead int
	// subtreeStack is the reusable DFS stack of enqueueSubtree.
	subtreeStack []*Node
	// dropLog records dropped subscriptions when params.LogDrops is set;
	// DrainDrops hands it to the session layer after each operation.
	dropLog []DropRecord
	// resub is the reusable worklist of joinRequest: the nodes a degree
	// push-down displaced, queued for a stream-subscription pass.
	resub []*Node
	// composeMemo short-circuits view composition for the common case of
	// many viewers requesting the same view (flash crowds, benchmarks):
	// the session and cutoff are immutable per manager, so an equal view
	// always composes to the same request. The memoized request is an
	// interned one, shared read-only exactly like a Group's Request
	// already is; its View is the intern table's private clone, so the
	// memo compares against that and copies nothing.
	composeMemo struct {
		valid bool
		req   model.ViewRequest
	}
	// viewIntern dedupes composed requests behind the memo: distinct but
	// equal views (same sites, same orientations) share one ViewRequest
	// allocation, keyed by a canonical byte fingerprint (intern.go). The
	// session and cutoff are immutable per manager, so an equal view
	// always composes identically; interned requests are shared read-only
	// exactly like a Group's Request already is.
	viewIntern map[string]model.ViewRequest
	// fpSites/fpBuf are the reusable fingerprint scratch.
	fpSites []model.SiteID
	fpBuf   []byte
	// resubscribeBudget caps subscription-chain propagation per public
	// operation. The cap binds in practice: κ push-down chains can cycle
	// through viewers that parent each other in different trees (ROADMAP
	// item 2), and only the budget ends such a chain.
	resubscribeBudget int
	// resubscribeExhausted counts the operations whose budget ran dry with
	// work still queued; surfaced as Snapshot.ResubscribeExhausted.
	resubscribeExhausted int
	// budgetOverride replaces propagationCap's constant when positive;
	// tests use it to force an exhaustion.
	budgetOverride int
	// alwaysWalk is Tree.alwaysWalk for the whole manager: trees it
	// creates inherit it and resubscribeOne hands every layer to setLayer,
	// unchanged ones too. Only tests set it.
	alwaysWalk bool

	// spare holds the node stores of retired trees, every slot free, for
	// treeFor to reuse (slab.go). It never holds more than spareMax, the
	// session's stream count: the most trees one group can have, so the
	// pool is bounded by one group's peak.
	spare    []*nodeStore
	spareMax int
}

// NewManager builds an overlay manager over the given session, CDN, and
// propagation-delay model.
func NewManager(session *model.Session, dist *cdn.CDN, prop PropFunc, params Params) (*Manager, error) {
	if session == nil || dist == nil || prop == nil {
		return nil, fmt.Errorf("overlay manager: session, cdn, and prop are required")
	}
	if params.Proc < 0 {
		return nil, fmt.Errorf("overlay manager: negative processing delay %v", params.Proc)
	}
	spareMax := 0
	for _, site := range session.Sites {
		spareMax += len(site.Streams)
	}
	return &Manager{
		session:    session,
		cdn:        dist,
		prop:       prop,
		params:     params,
		groups:     make(map[model.ViewKey]*Group),
		viewers:    make(map[model.ViewerID]*Viewer),
		viewIntern: make(map[string]model.ViewRequest, 16),
		spareMax:   spareMax,
	}, nil
}

// Params returns the session-wide overlay constants.
func (m *Manager) Params() Params { return m.params }

// CDN exposes the capacity accounting for experiments.
func (m *Manager) CDN() *cdn.CDN { return m.cdn }

// Viewer returns the record for a joined viewer.
func (m *Manager) Viewer(id model.ViewerID) (*Viewer, bool) {
	v, ok := m.viewers[id]
	return v, ok
}

// Len returns the number of viewer records the manager holds, admitted or
// rejected.
func (m *Manager) Len() int { return len(m.viewers) }

// JoinResult reports the outcome of a join or view-change request.
type JoinResult struct {
	Viewer *Viewer
	// Admitted is false when the request failed admission control: the
	// highest-priority stream of some producer site could not be served.
	Admitted bool
	// Reason names the admission-failure cause when Admitted is false
	// (ReasonNone otherwise).
	Reason RejectReason
	// Accepted lists the served streams in priority order.
	Accepted []model.StreamID
	// Dropped lists requested streams that were not served.
	Dropped []model.StreamID
	// CDNReserve is the wall-clock time the admission spent reserving CDN
	// egress, measured only when Params.TimeReserve is armed (zero
	// otherwise). The session layer carves it out of the overlay-admit
	// phase in slow-op traces.
	CDNReserve time.Duration
}

// Join admits a viewer requesting the given view, running the full §IV
// pipeline: view composition, inbound allocation, admission check, outbound
// allocation, degree push-down per stream, delay-bound enforcement, and the
// stream-subscription pass with chain propagation.
func (m *Manager) Join(info ViewerInfo, view model.View) (*JoinResult, error) {
	if _, dup := m.viewers[info.ID]; dup {
		return nil, fmt.Errorf("join %s: %w", info.ID, ErrViewerExists)
	}
	if info.InboundMbps < 0 || info.OutboundMbps < 0 {
		return nil, fmt.Errorf("join %s: negative capacity", info.ID)
	}
	return m.joinRequest(info, m.composeView(view))
}

// composeView translates a view into a stream request through the one-entry
// memo and, behind it, the shard-wide intern table: the memo keeps the
// flash-crowd fast path (a run of identical views) allocation-free, and the
// intern table makes every recurring view share one composed request even
// when the crowd alternates between views.
func (m *Manager) composeView(view model.View) model.ViewRequest {
	if m.composeMemo.valid && view.Equal(m.composeMemo.req.View) {
		return m.composeMemo.req
	}
	fp := m.viewFingerprint(view)
	req, interned := m.viewIntern[string(fp)]
	if !interned {
		// Compose from a private clone, once per distinct view: a request
		// holding the caller's map by reference would change under an
		// in-place orientation mutation, and the memo would then compare
		// the map against itself and serve a stale composition.
		req = model.ComposeView(m.session, view.Clone(), m.params.CutoffDF)
		if len(m.viewIntern) >= viewInternMax {
			clear(m.viewIntern)
		}
		m.viewIntern[string(fp)] = req
	}
	m.composeMemo.valid = true
	m.composeMemo.req = req
	return req
}

// joinRequest is the shared admission path for Join and ChangeView.
func (m *Manager) joinRequest(info ViewerInfo, req model.ViewRequest) (*JoinResult, error) {
	m.resubscribeBudget = m.propagationCap()
	m.streamsRequested += len(req.Streams)
	timeReserve := m.params.TimeReserve != nil && m.params.TimeReserve.Load()
	var reserve time.Duration

	group := m.groupFor(req)
	supply := func(id model.StreamID, bw float64) bool {
		return m.supplyFor(group, info, id, bw)
	}
	accepted := AllocateInbound(req, info.InboundMbps, supply)
	if !CoversAllSites(group.Sites, accepted) {
		return m.rejectViewer(info, req, group, m.diagnoseReject(group, info, req)), nil
	}
	allocate := AllocateOutbound
	if m.outboundPolicy != nil {
		allocate = m.outboundPolicy
	}
	out := allocate(accepted, info.OutboundMbps)
	if len(out.Shares) != len(accepted) {
		panic(fmt.Sprintf("overlay: outbound policy returned %d shares for %d accepted streams",
			len(out.Shares), len(accepted)))
	}

	v := &Viewer{
		Info:    info,
		Request: req,
		Group:   group,
		Nodes:   make([]*Node, 0, len(accepted)),
		Out:     out.Shares,
	}
	group.Members++
	m.viewers[info.ID] = v

	resub := m.resub[:0]
	var dropCause map[model.StreamID]RejectReason
	for k, rs := range accepted {
		id := rs.Stream.ID
		bw := rs.Stream.BitrateMbps
		pos := group.streamIndex(id)
		tree := m.treeFor(group, pos, rs.Stream)
		node := tree.NewNode(v, out.Shares[k].Deg)
		node.stream = int32(pos)
		var placed bool
		var displaced *Node
		if m.fifoAttachment {
			placed = tree.InsertFIFO(node)
		} else {
			placed, displaced = tree.Insert(node)
		}
		if !placed {
			var reserveStart time.Time
			if timeReserve {
				reserveStart = time.Now()
			}
			err := m.cdn.Allocate(id, bw)
			if timeReserve {
				reserve += time.Since(reserveStart)
			}
			if err != nil {
				// Stream dropped: no P2P position, no CDN budget. Blame
				// the peer layer when it had members but no slot, the
				// CDN fallback otherwise.
				if dropCause == nil {
					dropCause = make(map[model.StreamID]RejectReason)
				}
				if tree.Size() > 0 {
					dropCause[id] = ReasonDegreeExhausted
				} else {
					dropCause[id] = ReasonCDNEgress
				}
				tree.Recycle(node)
				continue
			}
			tree.AttachToCDN(node)
		}
		v.Nodes = append(v.Nodes, node)
		v.InUsedMbps += bw
		if displaced != nil {
			resub = append(resub, displaced)
		}
	}

	if !m.coverageHolds(v) {
		reason := m.coverageLossReason(v, req, dropCause)
		m.evict(v)
		for _, d := range resub {
			m.enqueueSubtree(d)
		}
		m.resub = resub[:0] // displacements drained into the worklist
		m.processPending()
		group.settle()
		m.viewersRejected++
		res := &JoinResult{
			Viewer:     v,
			Admitted:   false,
			Reason:     reason,
			Dropped:    req.StreamIDs(),
			CDNReserve: reserve,
		}
		v.Rejected = true
		m.viewers[info.ID] = v // keep record for distribution metrics
		return res, nil
	}

	m.enqueueResub(v)
	for _, d := range resub {
		// The displaced node moved one level deeper together with its
		// subtree; every viewer in it needs a subscription pass.
		m.enqueueSubtree(d)
	}
	m.resub = resub[:0] // displacements drained into the worklist
	m.processPending()
	group.settle()

	m.viewersAdmitted++
	m.streamsAccepted += len(v.Nodes)
	res := &JoinResult{Viewer: v, Admitted: true, Accepted: v.AcceptedStreams(), CDNReserve: reserve}
	// Accepted is a subsequence of the request in the same priority order,
	// so one cursor separates it from the dropped streams.
	next := 0
	for _, rs := range req.Streams {
		if next < len(res.Accepted) && res.Accepted[next] == rs.Stream.ID {
			next++
		} else {
			res.Dropped = append(res.Dropped, rs.Stream.ID)
		}
	}
	return res, nil
}

// rejectViewer records an inadmissible request without mutating any tree.
func (m *Manager) rejectViewer(info ViewerInfo, req model.ViewRequest, group *Group, reason RejectReason) *JoinResult {
	v := &Viewer{Info: info, Request: req, Group: group, Rejected: true}
	m.viewers[info.ID] = v
	m.viewersRejected++
	return &JoinResult{Viewer: v, Admitted: false, Reason: reason, Dropped: req.StreamIDs()}
}

// supplyFor reports whether one more subscriber of the stream can currently
// be served, by the group's peer layer or by the CDN (§IV-B1's supply test).
func (m *Manager) supplyFor(group *Group, info ViewerInfo, id model.StreamID, bw float64) bool {
	if tree := group.Trees[group.streamIndex(id)]; tree != nil {
		deg := 0
		if bw > 0 {
			deg = int(info.OutboundMbps / bw)
		}
		if tree.HasSupplyFor(deg, info.OutboundMbps) {
			return true
		}
	}
	return m.cdn.CanServe(bw)
}

// diagnoseReject replays the inbound allocation of a request that failed
// site coverage and names the first binding constraint: the viewer's own
// inbound capacity, the peer layer's out-degree supply, or the CDN egress
// budget. Allocation cuts from the low-priority end, so the first violation
// is what starved the uncovered site.
func (m *Manager) diagnoseReject(group *Group, info ViewerInfo, req model.ViewRequest) RejectReason {
	var used float64
	for _, rs := range req.Streams {
		bw := rs.Stream.BitrateMbps
		if used+bw > info.InboundMbps+bwEpsilon {
			return ReasonInboundBound
		}
		if !m.supplyFor(group, info, rs.Stream.ID, bw) {
			if t := group.Trees[group.streamIndex(rs.Stream.ID)]; t != nil && t.Size() > 0 {
				return ReasonDegreeExhausted
			}
			return ReasonCDNEgress
		}
		used += bw
	}
	return ReasonCDNEgress
}

// coverageLossReason picks the rejection cause after topology formation: the
// recorded drop cause of the highest-priority stream belonging to a site the
// viewer failed to cover.
func (m *Manager) coverageLossReason(v *Viewer, req model.ViewRequest, dropCause map[model.StreamID]RejectReason) RejectReason {
	for _, rs := range req.Streams {
		id := rs.Stream.ID
		if v.covers(id.Site) {
			continue
		}
		if cause, ok := dropCause[id]; ok {
			return cause
		}
	}
	for _, cause := range dropCause {
		return cause
	}
	return ReasonCDNEgress
}

// logDrop records a dropped subscription when drop logging is enabled.
func (m *Manager) logDrop(viewer model.ViewerID, stream model.StreamID, reason RejectReason) {
	if !m.params.LogDrops {
		return
	}
	m.dropLog = append(m.dropLog, DropRecord{Viewer: viewer, Stream: stream, Reason: reason})
}

// DrainDrops returns and clears the log of subscriptions dropped since the
// last call. Empty unless Params.LogDrops is set.
func (m *Manager) DrainDrops() []DropRecord {
	out := m.dropLog
	m.dropLog = nil
	return out
}

// coverageHolds re-checks the admission constraint N^u_accepted ≥ n after
// topology formation: at least one stream from every requested site. The
// site and node sets are small, so the quadratic scan beats building the
// set difference on every join.
func (m *Manager) coverageHolds(v *Viewer) bool {
	for _, site := range v.Group.Sites {
		if !v.covers(site) {
			return false
		}
	}
	return true
}

// covers reports whether the viewer holds a node of some stream of the site.
func (v *Viewer) covers(site model.SiteID) bool {
	for _, n := range v.Nodes {
		if v.Group.ids[n.stream].Site == site {
			return true
		}
	}
	return false
}

// Leave removes a viewer from the session, recovering the victims its
// departure creates (§VI).
func (m *Manager) Leave(id model.ViewerID) error {
	v, ok := m.viewers[id]
	if !ok {
		return fmt.Errorf("leave %s: %w", id, ErrViewerUnknown)
	}
	m.resubscribeBudget = m.propagationCap()
	m.evict(v)
	m.processPending()
	v.Group.settle()
	delete(m.viewers, id)
	m.retireGroup(v.Group)
	return nil
}

// ChangeView re-admits an existing viewer with a new view: it leaves all
// current streaming trees (creating victims that are recovered) and runs the
// normal join pipeline in the new view group. The session layer wraps this
// with the fast CDN path that hides the latency (§VI); the overlay itself is
// only concerned with the final topology.
func (m *Manager) ChangeView(id model.ViewerID, view model.View) (*JoinResult, error) {
	v, ok := m.viewers[id]
	if !ok {
		return nil, fmt.Errorf("view change %s: %w", id, ErrViewerUnknown)
	}
	m.resubscribeBudget = m.propagationCap()
	m.evict(v)
	m.processPending()
	v.Group.settle()
	delete(m.viewers, id)
	m.retireGroup(v.Group)
	// A previously rejected viewer re-requesting is a fresh admission;
	// nothing else to undo.
	return m.joinRequest(v.Info, m.composeView(view))
}

// retireGroup unregisters a group that has no member left and hands each of
// its trees' node stores to the spare list. Only the registered group is
// retired: a rejected record keeps the group it was refused in, and once
// that group has emptied and been retired a new group can hold the same
// view key, so a stale group is left alone rather than unregistering (or
// pooling the stores of) the live one.
func (m *Manager) retireGroup(g *Group) {
	if g.Members != 0 || m.groups[g.Key] != g {
		return
	}
	delete(m.groups, g.Key)
	for _, t := range g.Trees {
		// A store with a bound slot (only a corrupted tree has one) is
		// left to the GC rather than pooled.
		if t != nil && len(m.spare) < m.spareMax && t.store.allFree() {
			m.spare = append(m.spare, t.store)
		}
	}
	// A rejected record may still hold the retired group; through it,
	// nothing must reach the stores other trees now use.
	clear(g.Trees)
}

// evict removes all of a viewer's tree nodes (recovering victims) and
// releases its allocations, in request priority order, and takes an
// admitted record out of its group's member count. The viewer record itself
// is left to the caller. Recovering the victims of one stream never touches
// the viewer's node in another tree, so dropping the head of Nodes until
// none is left drops exactly the streams held on entry.
func (m *Manager) evict(v *Viewer) {
	for len(v.Nodes) > 0 {
		m.dropStream(v, 0, true)
	}
	if !v.Rejected {
		v.Group.Members--
	}
}

// dropStream removes a viewer's subscription Nodes[i]. Victims (the node's
// children) are recovered per §VI: re-inserted via degree push-down, else
// served from the CDN at their current delay layer, else dropped in
// cascade. When recover is false victims are dropped outright.
func (m *Manager) dropStream(v *Viewer, i int, recover bool) {
	node := v.Nodes[i]
	tree := v.Group.Trees[node.stream]
	wasRoot := node.Parent == nil
	victims := tree.Detach(node)
	v.Nodes = slices.Delete(v.Nodes, i, i+1)
	v.InUsedMbps -= tree.Stream.BitrateMbps
	if v.InUsedMbps < 0 {
		v.InUsedMbps = 0
	}
	if wasRoot {
		// Releasing our own accounting error would corrupt totals;
		// surface it loudly in tests via validate, ignore here.
		_ = m.cdn.Release(tree.Stream.ID, tree.Stream.BitrateMbps)
	}
	// The node is fully disconnected and every reference is gone: its
	// slab slot goes back on the free list before victim recovery runs.
	tree.Recycle(node)
	for _, victim := range victims {
		if recover {
			m.recoverVictim(tree, victim)
		} else {
			m.cascadeDrop(tree, victim)
		}
	}
}

// recoverVictim re-attaches a detached subtree root: degree push-down first,
// then the CDN, then cascade-drop of the victim's own subscription with its
// children becoming victims in turn.
func (m *Manager) recoverVictim(tree *Tree, victim *Node) {
	if placed, displaced := tree.Reattach(victim); placed {
		m.enqueueSubtree(victim)
		if displaced != nil {
			m.enqueueSubtree(displaced)
		}
		return
	}
	if err := m.cdn.Allocate(tree.Stream.ID, tree.Stream.BitrateMbps); err == nil {
		tree.AttachToCDN(victim)
		m.enqueueSubtree(victim)
		return
	}
	m.cascadeDrop(tree, victim)
}

// cascadeDrop removes a victim's subscription entirely; its children become
// victims recovered through the normal path.
func (m *Manager) cascadeDrop(tree *Tree, victim *Node) {
	// The victim reaches here only after both recovery paths failed:
	// degree push-down found no position and the CDN had no egress left.
	vv := victim.owner
	m.logDrop(vv.Info.ID, tree.Stream.ID, ReasonCDNEgress)
	if i := slices.Index(vv.Nodes, victim); i >= 0 {
		vv.Nodes = slices.Delete(vv.Nodes, i, i+1)
	}
	vv.InUsedMbps -= tree.Stream.BitrateMbps
	if vv.InUsedMbps < 0 {
		vv.InUsedMbps = 0
	}
	children := tree.Orphan(victim)
	// Dropped for good: recycle before recursing so a deep cascade frees
	// slots as it unwinds.
	tree.Recycle(victim)
	for _, c := range children {
		m.recoverVictim(tree, c)
	}
}

// groupFor returns (creating if needed) the view group of a request.
func (m *Manager) groupFor(req model.ViewRequest) *Group {
	key := req.Key()
	if g, ok := m.groups[key]; ok {
		return g
	}
	g := newGroup(req)
	m.groups[key] = g
	return g
}

// treeFor returns (creating if needed) the group's tree for stream s, the
// group's stream at position i. A new tree takes a spare store before it
// grows one of its own.
func (m *Manager) treeFor(g *Group, i int, s model.Stream) *Tree {
	if t := g.Trees[i]; t != nil {
		return t
	}
	var store *nodeStore
	if n := len(m.spare); n > 0 {
		store = m.spare[n-1]
		m.spare[n-1] = nil
		m.spare = m.spare[:n-1]
		store.reset()
	} else {
		store = newNodeStore()
	}
	t := newTree(s.ID, s.BitrateMbps, s.FrameRate, store, m.prop, m.params)
	t.alwaysWalk = m.alwaysWalk
	g.Trees[i] = t
	return t
}

func (m *Manager) propagationCap() int {
	if m.budgetOverride > 0 {
		return m.budgetOverride
	}
	return 1 << 20
}

// OutboundPolicy is an alternative outbound bandwidth allocation; the
// ablation experiments use it to contrast the paper's round-robin against
// highest-priority-only and equal-split policies. accepted is read-only:
// it is the accepted prefix of the join's request (AllocateInbound), which
// the manager shares with every viewer of the view, so a policy that sorted
// or edited it would rewrite later joiners' requests. The returned Shares
// must be aligned with it, one per accepted stream.
type OutboundPolicy func(accepted []model.RankedStream, outboundMbps float64) OutboundAllocation

// SetOutboundPolicy overrides the outbound allocation for subsequent joins.
// Passing nil restores the paper's round-robin.
func (m *Manager) SetOutboundPolicy(p OutboundPolicy) { m.outboundPolicy = p }

// SetFIFOAttachment toggles the degree push-down off: joiners only fill
// free slots, in BFS order, and never displace weaker nodes (ablation A2).
func (m *Manager) SetFIFOAttachment(fifo bool) { m.fifoAttachment = fifo }

// MeanTreeDepth averages the maximum depth over all live trees; the degree
// push-down exists to keep this small (flatter trees, §IV-B2).
func (m *Manager) MeanTreeDepth() float64 {
	total, count := 0, 0
	for _, g := range m.groups {
		for _, t := range g.Trees {
			if t != nil && t.Size() > 0 {
				total += t.Depth()
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// Groups returns the live view groups keyed canonically; exposed for tests
// and experiments.
func (m *Manager) Groups() map[model.ViewKey]*Group { return m.groups }

// SortedViewerIDs returns all known viewer IDs in deterministic order.
func (m *Manager) SortedViewerIDs() []model.ViewerID {
	ids := make([]model.ViewerID, 0, len(m.viewers))
	for id := range m.viewers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// RefreshAll re-derives every tree's delay state from the current
// propagation delays — every cached edge included, by the full walk — and
// re-runs stream subscription for every viewer whose state changed: the
// periodic delay-layer adaptation of §VI. It returns the number of nodes
// whose delay state changed.
func (m *Manager) RefreshAll() int {
	m.resubscribeBudget = m.propagationCap()
	changed := 0
	for _, g := range m.groups {
		for _, t := range g.Trees {
			if t == nil {
				continue
			}
			for _, r := range t.Roots() {
				nodes := t.refreshFull(r)
				changed += len(nodes)
				m.enqueueNodes(nodes)
			}
		}
	}
	m.processPending()
	for _, g := range m.groups {
		g.settle()
	}
	return changed
}
