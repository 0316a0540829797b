package overlay

import "telecast/internal/model"

// Shard is the narrow contract the session layer consumes from an overlay
// manager. A shard is single-threaded by design: each region-local session
// controller (LSC) owns exactly one shard and serializes every call through
// its own lock, so different regions' shards run concurrently while a
// shard's internal state never needs synchronization. Anything returned by
// reference (JoinResult, Viewer) is owned by the shard and must only be
// dereferenced while the owner still holds its serialization lock.
type Shard interface {
	// Join admits a viewer through the full §IV construction pipeline.
	Join(info ViewerInfo, view model.View) (*JoinResult, error)
	// Leave removes a viewer, recovering the victims of its departure (§VI).
	Leave(id model.ViewerID) error
	// ChangeView re-admits an existing viewer with a new view.
	ChangeView(id model.ViewerID, view model.View) (*JoinResult, error)
	// Extract removes a viewer preserving its admission state for
	// re-admission on another shard; victims are recovered as on Leave.
	Extract(id model.ViewerID) (MigrationState, error)
	// AdmitMigrant re-admits an extracted viewer from its preserved
	// request. keepIfRejected=false leaves no record behind on rejection
	// (the migrant bounces back to its source shard); true keeps the
	// rejected record the way Join does (restore-on-source).
	AdmitMigrant(st MigrationState, keepIfRejected bool) (*JoinResult, error)
	// Viewer returns the record of a joined viewer.
	Viewer(id model.ViewerID) (*Viewer, bool)
	// Len returns the number of viewer records, admitted or rejected.
	Len() int
	// RefreshAll re-runs the periodic delay-layer adaptation (§VI).
	RefreshAll() int
	// Snapshot summarizes the shard for cross-shard aggregation.
	Snapshot() Snapshot
	// QuickSnapshot is Snapshot without the per-viewer distributions or the
	// CDN usage copy — the cheap form periodic samplers aggregate.
	QuickSnapshot() Snapshot
	// Validate checks the shard's overlay invariants.
	Validate() error
	// CDNImplied returns the per-stream egress the shard's trees imply,
	// for global CDN accounting checks.
	CDNImplied() map[model.StreamID]float64
	// Params returns the session-wide overlay constants.
	Params() Params
	// DrainDrops returns and clears the log of stream subscriptions the
	// shard dropped since the last call (delay-layer adaptation, failed
	// victim recovery). Always empty unless Params.LogDrops is set.
	DrainDrops() []DropRecord
	// DumpTrees renders the shard's dissemination trees for inspection.
	DumpTrees() string
	// ExportState captures the shard's full logical state for snapshot-based
	// recovery; restore it with Manager.Restore.
	ExportState() *ShardState
}

// Manager is the canonical Shard implementation.
var _ Shard = (*Manager)(nil)
