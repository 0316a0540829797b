package overlay

import (
	"fmt"

	"telecast/internal/model"
)

// This file implements the overlay half of cross-region viewer migration:
// the source shard extracts a viewer — preserving its admission state while
// recovering the victims of its departure, exactly as a Leave would — and
// the destination shard re-admits it from that preserved state without
// recomposing the view. The two halves run on different Managers that share
// nothing but the CDN, whose atomic check-and-hold of egress keeps the
// Δ-bounded budget consistent while the viewer is owned by neither shard.

// MigrationState is a viewer's preserved admission state, captured by
// Extract on the source shard and replayed by AdmitMigrant on the
// destination (or back on the source when the destination refuses it).
type MigrationState struct {
	// Info is the viewer's identity and capacity constraints.
	Info ViewerInfo
	// Request is the composed, priority-ordered view request the source
	// admitted, carried verbatim so the destination serves exactly the
	// same streams the viewer was watching without recomposing the view.
	Request model.ViewRequest
	// Layers snapshots the κ-subscription state at extraction time: the
	// assigned delay layer per accepted stream. Destinations re-derive
	// layers from their own topology (a preserved layer could violate the
	// κ bound at the new position), so the snapshot exists for events,
	// diagnostics, and tests — not to be re-applied. The map is one small
	// allocation per handoff, deliberately kept: migrations are rare
	// control-plane events, not the per-join hot path.
	Layers map[model.StreamID]int
	// Rejected records that the viewer held no streams on the source (an
	// admission-control reject kept as a record); migrating such a viewer
	// is a fresh admission attempt on the destination.
	Rejected bool
}

// Extract removes a viewer from this shard for migration: its admission
// state is snapshotted, its tree nodes detached with the usual victim
// recovery (§VI — children are re-parented via degree push-down, re-rooted
// at the CDN, or cascade-dropped), its CDN-rooted egress released, and its
// record deleted. The returned state is self-contained; the shard retains
// nothing of the viewer.
func (m *Manager) Extract(id model.ViewerID) (MigrationState, error) {
	v, ok := m.viewers[id]
	if !ok {
		return MigrationState{}, fmt.Errorf("extract %s: %w", id, ErrViewerUnknown)
	}
	st := MigrationState{Info: v.Info, Request: v.Request, Rejected: v.Rejected}
	if len(v.Nodes) > 0 {
		st.Layers = make(map[model.StreamID]int, len(v.Nodes))
		for _, n := range v.Nodes {
			st.Layers[v.Group.ids[n.stream]] = n.Layer
		}
	}
	m.resubscribeBudget = m.propagationCap()
	m.evict(v)
	m.processPending()
	v.Group.settle()
	delete(m.viewers, id)
	m.retireGroup(v.Group)
	return st, nil
}

// AdmitMigrant re-admits an extracted viewer from its preserved request,
// running the full §IV pipeline against this shard's trees. When the
// admission is refused and keepIfRejected is false, the migrant leaves no
// record behind — it bounces back to its source shard, and a record here
// would double-count the viewer across shards. keepIfRejected true keeps
// the rejected record the way Join does; the restore-on-source path uses it
// so a viewer whose home shard can no longer serve it stays routed (and
// leavable, and able to retry) as a rejected viewer.
func (m *Manager) AdmitMigrant(st MigrationState, keepIfRejected bool) (*JoinResult, error) {
	if _, dup := m.viewers[st.Info.ID]; dup {
		return nil, fmt.Errorf("admit migrant %s: %w", st.Info.ID, ErrViewerExists)
	}
	res, err := m.joinRequest(st.Info, st.Request)
	if err != nil || res.Admitted || keepIfRejected {
		return res, err
	}
	// The rejection stays in the cumulative counters (admission control
	// did refuse the request on this shard) but the record goes. A
	// rejected record is no member of its group, so no count changes.
	if v, ok := m.viewers[st.Info.ID]; ok {
		delete(m.viewers, st.Info.ID)
		m.retireGroup(v.Group)
	}
	return res, nil
}
