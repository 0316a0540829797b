package overlay

// The stream-subscription process of §V-B3 is driven by a deduplicated
// worklist: any mutation that changes a node's delay state enqueues the
// affected viewers, and processPending drains the queue, running one
// subscription pass per viewer. The overlay property (§IV-B2) keeps the
// serve relation acyclic within one tree, but not across a group's trees:
// two viewers can parent each other in different streams, so a κ push-down
// chain can cycle and the drain is not guaranteed to terminate on its own.
// A per-operation budget cuts such a chain off; it does bind in practice
// (ROADMAP item 2), each time leaving a κ-spread violation behind, and every
// exhaustion is counted in Snapshot.ResubscribeExhausted.
//
// The worklist holds viewer records, not IDs, and a record's pending flag is
// its dedup bit, so the pass hashes no viewer ID: a node reaches its record
// through its owner pointer. Popping a record without looking it up in
// Manager.viewers is sound because of one invariant:
//
//	the worklist is empty whenever a record enters or leaves Manager.viewers.
//
// Every public operation ends by draining it (or clearing it on
// exhaustion); joinRequest, behind Join, ChangeView and AdmitMigrant, files
// its record before it queues anything; and Leave, ChangeView, Extract and
// AdmitMigrant delete a record only after their drain. So every queued
// record is live when it is popped. A recycled handle, zeroed with its
// owner, queues nobody.

// enqueueResub marks a viewer record for a subscription pass; nil is a
// no-op.
func (m *Manager) enqueueResub(v *Viewer) {
	if v == nil || v.pending {
		return
	}
	v.pending = true
	m.pendingQ = append(m.pendingQ, v)
}

// enqueueNodes marks the viewers of changed nodes.
func (m *Manager) enqueueNodes(nodes []*Node) {
	for _, n := range nodes {
		m.enqueueResub(n.owner)
	}
}

// enqueueSubtree marks every viewer in the subtree rooted at n.
func (m *Manager) enqueueSubtree(n *Node) {
	stack := append(m.subtreeStack[:0], n)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m.enqueueResub(cur.owner)
		stack = append(stack, cur.Children...)
	}
	m.subtreeStack = stack
}

// processPending drains the subscription worklist. The queue is consumed
// through a head cursor and compacted whenever the consumed prefix is at
// least half of it, so its backing array is reused across operations and
// stays proportional to the viewers actually waiting — a chain that cycles
// for the whole budget pops a million entries but never has many queued.
//
// Compaction clears the tail it leaves behind, and the last pop always
// compacts, so every popped entry is cleared; exhaustion clears the
// residue. Between operations the backing array holds no record, so it
// never keeps a departed viewer's record alive. The pop relies on the
// empty-worklist invariant in the header above: the record it takes is
// live, so it is not looked up again.
func (m *Manager) processPending() {
	for m.pendingHead < len(m.pendingQ) && m.resubscribeBudget > 0 {
		m.resubscribeBudget--
		v := m.pendingQ[m.pendingHead]
		m.pendingHead++
		if 2*m.pendingHead >= len(m.pendingQ) {
			n := copy(m.pendingQ, m.pendingQ[m.pendingHead:])
			clear(m.pendingQ[n:])
			m.pendingQ = m.pendingQ[:n]
			m.pendingHead = 0
		}
		v.pending = false
		m.resubscribeOne(v)
	}
	// A drained budget with work left means the propagation chain cycled
	// across trees. Count the miss and drop the residue so a later
	// operation starts clean rather than replaying stale work.
	if m.pendingHead < len(m.pendingQ) {
		m.resubscribeExhausted++
		for _, v := range m.pendingQ[m.pendingHead:] {
			v.pending = false
		}
		clear(m.pendingQ)
		m.pendingQ = m.pendingQ[:0]
		m.pendingHead = 0
	}
}

// resubscribeOne runs one stream-subscription pass for a viewer: recompute
// the minimum layer per accepted stream from the parents' effective delays
// (Eq. 1), bound the spread by κ via layer push-down (Layer Property 2),
// apply delay-layer adaptation to streams beyond d_max, and enqueue every
// viewer whose node state changed as a consequence.
//
// The pass inlines Hierarchy.Subscribe over the viewer's nodes — drop
// anything whose minimum layer exceeds the d_max layer, pin the rest at the
// highest minimum, lift stragglers to pin−κ — because building Subscribe's
// intermediate maps on a path this hot dominated the allocation profile.
// layering.Hierarchy.Subscribe remains the semantic reference.
//
// Both walks visit the viewer's streams in its request's priority order
// (the order of Viewer.Nodes), so the push-down queue a pass builds is a
// function of the overlay state alone, and each node reaches its tree by
// position (Node.stream) rather than by hashing its stream ID.
func (m *Manager) resubscribeOne(v *Viewer) {
	h := m.params.Hierarchy
	maxLayer := h.MaxLayer()

	pin := 0
	for i, node := range v.Nodes {
		l := h.LayerOf(node.MinE2E)
		if l > maxLayer {
			// Delay layer adaptation (§VI): a stream whose minimum
			// layer already violates d_max is re-provisioned from the
			// CDN when its parent is a viewer; when the parent is the
			// CDN nothing faster exists and the subscription drops.
			tree := v.Group.Trees[node.stream]
			if node.Parent != nil && m.cdn.Allocate(tree.Stream.ID, tree.Stream.BitrateMbps) == nil {
				tree.MoveToCDN(node)
				m.enqueueSubtree(node)
			} else {
				m.logDrop(v.Info.ID, tree.Stream.ID, ReasonDelayBound)
				m.dropStream(v, i, true)
			}
			// The viewer's layer picture changed; run a fresh pass for
			// it rather than applying the stale subscription.
			m.enqueueResub(v)
			return
		}
		if l > pin {
			pin = l
		}
	}

	floor := pin - h.Kappa
	for _, node := range v.Nodes {
		layer := h.LayerOf(node.MinE2E)
		if layer < floor {
			layer = floor // layer push-down: κ-bounded spread
		}
		// layer is already at least the node's path minimum, so setLayer
		// would not clamp it, and an unchanged layer makes it return
		// without walking: skip the call and the tree lookup with it.
		if layer == node.Layer && !m.alwaysWalk {
			continue
		}
		tree := v.Group.Trees[node.stream]
		for _, c := range tree.setLayer(node, layer) {
			if c != node {
				m.enqueueResub(c.owner)
			}
		}
	}
}
