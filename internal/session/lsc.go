package session

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"telecast/internal/model"
	"telecast/internal/overlay"
	"telecast/internal/telemetry"
	"telecast/internal/trace"
)

// LSC is a region-local session controller: an independently-locked shard of
// the control plane. It owns the overlay of its cluster's viewers and the
// per-shard viewer registry, so joins, departures, and view changes in one
// region proceed concurrently with every other region. Two locks protect a
// shard:
//
//   - mu is the owner lock: it serializes all calls into the single-threaded
//     overlay shard (the toxcore-style one-subsystem-one-lock discipline).
//   - vmu guards the viewer registry, read-mostly so the overlay's
//     propagation-delay lookups take only an RLock. The overlay caches
//     d_prop per tree edge, so those lookups run once per edge formed (and
//     on RefreshAll, restore and validation walks), not once per delay
//     refresh.
//
// Lock order is mu before vmu; nothing may acquire mu while holding vmu.
type LSC struct {
	Region  trace.Region
	NodeIdx int

	cfg *Config
	bus *eventBus
	// tel is the controller-wide telemetry collector, shared by every shard;
	// shard methods advance the caller's OpTrace at phase boundaries.
	tel *telemetry.Collector
	// scale points at the controller's delay-scale word (DelayShift fault);
	// nil or zero bits mean the unscaled landscape.
	scale *atomic.Uint64

	// mon is this shard's local read path into the producer monitor,
	// installed by AttachMonitor.
	mon atomic.Pointer[MonitorReader]

	mu    sync.Mutex
	shard overlay.Shard
	// rec, when armed, is the shard's recovery journal: a snapshot of the
	// overlay state plus every admission-relevant transition since, appended
	// under mu in shard order. Guarded by mu.
	rec *shardRecorder

	// down marks a killed shard: every operation fails with ErrShardDown
	// until RecoverRegion completes. Set and cleared under mu; read lock-free
	// at operation entry (the authoritative re-check happens under mu).
	down atomic.Bool
	// epoch counts this shard's mutations; bumped under mu after every call
	// into the overlay. The online validator snapshots the epoch vector,
	// validates, and retries if any epoch moved — the scheme that replaced
	// the quiescence assumption.
	epoch atomic.Uint64
	// drops accumulates the overlay's adaptation-drop log length — the
	// counter /metricz and SampleStats surface.
	drops atomic.Uint64

	vmu     sync.RWMutex
	viewers map[model.ViewerID]viewerState
}

// viewerState is stored by value: the record is two words of payload, so
// keeping it inline in the registry map saves one heap object (and one GC
// pointer to chase) per viewer — at admission scale, one allocation per join.
type viewerState struct {
	nodeIdx int
	info    overlay.ViewerInfo
}

// viewerRegistrySeed pre-sizes each shard's registry past the early growth
// rehashes; admission-scale shards hold tens of thousands of viewers.
const viewerRegistrySeed = 1024

func newLSC(region trace.Region, nodeIdx int, cfg *Config, bus *eventBus) *LSC {
	return &LSC{
		Region:  region,
		NodeIdx: nodeIdx,
		cfg:     cfg,
		bus:     bus,
		viewers: make(map[model.ViewerID]viewerState, viewerRegistrySeed),
	}
}

// emit publishes an event into this shard's ring. Events emitted while the
// shard lock is held are sequenced exactly as the shard processed the
// operations, which is the per-region ordering Subscribe guarantees.
func (l *LSC) emit(ev Event) { l.bus.publish(l.Region, ev) }

// emitDropsLocked drains the overlay's drop log, counts it, and publishes
// one EventStreamDropped per record. Callers must hold mu.
func (l *LSC) emitDropsLocked() {
	recs := l.shard.DrainDrops()
	if len(recs) > 0 {
		l.drops.Add(uint64(len(recs)))
	}
	for _, d := range recs {
		l.emit(Event{
			Kind:   EventStreamDropped,
			Viewer: d.Viewer,
			Stream: d.Stream,
			Reason: d.Reason,
		})
	}
}

// downErr is the typed refusal of a killed shard.
func (l *LSC) downErr() error {
	return fmt.Errorf("lsc region %d: %w", l.Region, ErrShardDown)
}

// emitJoinLocked publishes the admission outcome of a join or view-change
// re-admission. Callers must hold mu.
func (l *LSC) emitJoinLocked(kind EventKind, id model.ViewerID, res *overlay.JoinResult) {
	if res.Admitted {
		l.emit(Event{Kind: kind, Viewer: id, Streams: len(res.Accepted)})
	} else {
		l.emit(Event{Kind: EventJoinRejected, Viewer: id, Reason: res.Reason})
	}
	l.emitDropsLocked()
}

// propFunc adapts the latency matrix to the overlay's viewer-pair delays
// using the shard-local registry; the lookup never leaves the shard. A miss
// is a registration-order bug — viewers are registered with their LSC before
// any overlay insertion — so it panics instead of fabricating a delay. The
// overlay calls it when a tree edge forms and caches the result, so a change
// of the delay scale reaches existing edges only through RefreshAll (which
// ShiftDelays runs) or a shard rebuild.
func (l *LSC) propFunc() overlay.PropFunc {
	return func(a, b model.ViewerID) time.Duration {
		l.vmu.RLock()
		va, okA := l.viewers[a]
		vb, okB := l.viewers[b]
		l.vmu.RUnlock()
		if !okA || !okB {
			panic(fmt.Sprintf(
				"session: propagation lookup for unregistered viewer (%s ok=%t, %s ok=%t) in LSC region %d: registration-order bug",
				a, okA, b, okB, l.Region))
		}
		d := l.cfg.Latency.Delay(va.nodeIdx, vb.nodeIdx)
		if l.scale != nil {
			if bits := l.scale.Load(); bits != 0 {
				if s := math.Float64frombits(bits); s != 1 {
					d = time.Duration(float64(d) * s)
				}
			}
		}
		return d
	}
}

// register inserts a viewer into the shard registry before its overlay
// insertion so propagation-delay lookups always hit.
func (l *LSC) register(st viewerState) {
	l.vmu.Lock()
	l.viewers[st.info.ID] = st
	l.vmu.Unlock()
}

// unregister removes a viewer from the shard registry.
func (l *LSC) unregister(id model.ViewerID) {
	l.vmu.Lock()
	delete(l.viewers, id)
	l.vmu.Unlock()
}

// viewerCount returns the number of registered viewers — the occupancy
// gauge telemetry polls at snapshot time.
func (l *LSC) viewerCount() int {
	l.vmu.RLock()
	n := len(l.viewers)
	l.vmu.RUnlock()
	return n
}

// state returns the registry record of a viewer owned by this shard.
func (l *LSC) state(id model.ViewerID) (viewerState, bool) {
	l.vmu.RLock()
	st, ok := l.viewers[id]
	l.vmu.RUnlock()
	return st, ok
}

// join runs the overlay admission for an already-registered viewer and
// returns the subscription round trip to the farthest parent, measured while
// the shard lock still pins the resulting topology.
func (l *LSC) join(st viewerState, view model.View, tr *telemetry.OpTrace) (*overlay.JoinResult, time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down.Load() {
		return nil, 0, l.downErr()
	}
	// Re-assert the registration: prepare already inserted it, but a
	// kill/recover cycle between prepare and admission wipes the registry and
	// rebuilds only snapshot- or journal-known viewers — this in-flight one is
	// neither. The overwrite is idempotent on the normal path.
	l.register(st)
	res, err := l.shard.Join(st.info, view)
	l.epoch.Add(1)
	tr.Phase(telemetry.PhaseAdmit)
	if err != nil {
		return nil, 0, err
	}
	tr.Carve(telemetry.PhaseAdmit, telemetry.PhaseReserve, res.CDNReserve)
	l.journalLocked(journalEntry{op: opJoin, id: st.info.ID, nodeIdx: st.nodeIdx, info: st.info, view: view})
	l.emitJoinLocked(EventJoinAccepted, st.info.ID, res)
	tr.Phase(telemetry.PhasePublish)
	return res, l.worstParentRTTLocked(st, res), nil
}

// leave removes a viewer from the overlay and the shard registry, returning
// its latency-matrix node for reuse. The registry removal happens inside the
// shard critical section so it cannot interleave with another admission.
func (l *LSC) leave(id model.ViewerID, tr *telemetry.OpTrace) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down.Load() {
		return 0, l.downErr()
	}
	if err := l.shard.Leave(id); err != nil {
		l.epoch.Add(1)
		tr.Phase(telemetry.PhaseAdmit)
		return 0, err
	}
	l.epoch.Add(1)
	tr.Phase(telemetry.PhaseAdmit)
	l.journalLocked(journalEntry{op: opLeave, id: id})
	l.emit(Event{Kind: EventDeparted, Viewer: id})
	l.emitDropsLocked()
	tr.Phase(telemetry.PhasePublish)
	l.vmu.Lock()
	st, ok := l.viewers[id]
	delete(l.viewers, id)
	l.vmu.Unlock()
	if !ok {
		return 0, fmt.Errorf("lsc region %d: viewer %s left overlay but was never registered", l.Region, id)
	}
	return st.nodeIdx, nil
}

// extract removes a viewer from this shard for a cross-region handoff: the
// overlay detaches it (victims recovered), the detach event is sequenced on
// this shard's ring, and the registry entry is removed inside the shard
// critical section so it cannot interleave with another admission. It
// returns the preserved admission state and the viewer's latency node.
func (l *LSC) extract(id model.ViewerID, to trace.Region, cause string, tr *telemetry.OpTrace) (overlay.MigrationState, int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down.Load() {
		return overlay.MigrationState{}, 0, l.downErr()
	}
	st, err := l.shard.Extract(id)
	l.epoch.Add(1)
	tr.Phase(telemetry.PhasePrepare)
	if err != nil {
		return overlay.MigrationState{}, 0, err
	}
	l.journalLocked(journalEntry{op: opMigrantOut, id: id})
	l.emit(Event{Kind: EventMigratedOut, Viewer: id, From: l.Region, To: to, Cause: cause})
	l.emitDropsLocked()
	l.vmu.Lock()
	vst, ok := l.viewers[id]
	delete(l.viewers, id)
	l.vmu.Unlock()
	if !ok {
		return overlay.MigrationState{}, 0, fmt.Errorf("lsc region %d: viewer %s extracted from overlay but was never registered", l.Region, id)
	}
	return st, vst.nodeIdx, nil
}

// admitMigrant re-admits an extracted viewer on this (destination) shard.
// The caller must have registered the viewer's state first so propagation
// lookups hit. On success the arrival event is sequenced on this shard's
// ring; a rejection emits EventJoinRejected here and leaves the record
// question to keepIfRejected (see overlay.Manager.AdmitMigrant).
func (l *LSC) admitMigrant(vst viewerState, st overlay.MigrationState, from trace.Region, cause string, keepIfRejected bool, tr *telemetry.OpTrace) (*overlay.JoinResult, time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down.Load() {
		return nil, 0, l.downErr()
	}
	// Same registration re-assert as join: heals a kill/recover cycle that
	// raced between the caller's register and this admission.
	l.register(vst)
	res, err := l.shard.AdmitMigrant(st, keepIfRejected)
	l.epoch.Add(1)
	tr.Phase(telemetry.PhaseAdmit)
	if err != nil {
		return nil, 0, err
	}
	tr.Carve(telemetry.PhaseAdmit, telemetry.PhaseReserve, res.CDNReserve)
	if res.Admitted || keepIfRejected {
		// Journal only outcomes that left a record behind; replay re-admits
		// with keep=true so a replay-time rejection still leaves the viewer
		// routed as a rejected record.
		l.journalLocked(journalEntry{op: opMigrantIn, id: st.Info.ID, nodeIdx: vst.nodeIdx, info: st.Info, req: st.Request})
	}
	if res.Admitted {
		l.emit(Event{Kind: EventMigratedIn, Viewer: st.Info.ID, From: from, To: l.Region, Cause: cause, Streams: len(res.Accepted)})
	} else {
		l.emit(Event{Kind: EventJoinRejected, Viewer: st.Info.ID, Reason: res.Reason})
	}
	l.emitDropsLocked()
	tr.Phase(telemetry.PhasePublish)
	return res, l.worstParentRTTLocked(vst, res), nil
}

// restoreMigrant re-admits a bounced migrant on this (source) shard after
// the destination refused it, keeping the record even when the re-admission
// is itself rejected — the viewer stays routed here as a rejected viewer.
// cause carries the destination's rejection reason onto the restore event.
func (l *LSC) restoreMigrant(vst viewerState, st overlay.MigrationState, to trace.Region, reason RejectReason) (*overlay.JoinResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down.Load() {
		return nil, l.downErr()
	}
	l.register(vst)
	res, err := l.shard.AdmitMigrant(st, true)
	l.epoch.Add(1)
	if err != nil {
		return nil, err
	}
	l.journalLocked(journalEntry{op: opMigrantIn, id: st.Info.ID, nodeIdx: vst.nodeIdx, info: st.Info, req: st.Request})
	l.emit(Event{Kind: EventMigrationRestored, Viewer: st.Info.ID, From: l.Region, To: to, Reason: reason})
	l.emitDropsLocked()
	return res, nil
}

// noteMigrationDeparture sequences a departure event for a migrant removed
// under the depart-on-reject policy. The shard lock orders it against the
// region's other operations even though the shard state was already updated
// by the extract.
func (l *LSC) noteMigrationDeparture(id model.ViewerID) {
	l.mu.Lock()
	l.emit(Event{Kind: EventDeparted, Viewer: id})
	l.mu.Unlock()
}

// changeView re-admits a viewer with a new view and returns the new
// topology, the farthest-parent round trip, and the viewer's node index.
func (l *LSC) changeView(id model.ViewerID, view model.View, tr *telemetry.OpTrace) (*overlay.JoinResult, time.Duration, int, error) {
	l.mu.Lock()
	if l.down.Load() {
		l.mu.Unlock()
		return nil, 0, 0, l.downErr()
	}
	// The registry lookup must come after the down check: a killed shard's
	// registry is empty, and a routed viewer probing it would read as unknown
	// instead of getting the typed ErrShardDown refusal.
	st, ok := l.state(id)
	if !ok {
		l.mu.Unlock()
		return nil, 0, 0, ErrUnknownViewer
	}
	res, err := l.shard.ChangeView(id, view)
	l.epoch.Add(1)
	tr.Phase(telemetry.PhaseAdmit)
	if err != nil {
		l.mu.Unlock()
		return nil, 0, 0, err
	}
	tr.Carve(telemetry.PhaseAdmit, telemetry.PhaseReserve, res.CDNReserve)
	l.journalLocked(journalEntry{op: opChangeView, id: id, view: view})
	l.emitJoinLocked(EventViewChanged, id, res)
	tr.Phase(telemetry.PhasePublish)
	worst := l.worstParentRTTLocked(st, res)
	l.mu.Unlock()
	return res, worst, st.nodeIdx, nil
}

// worstParentRTTLocked computes the subscription-start round trip to the
// farthest parent of an admission result. Callers must hold mu so the node
// parents cannot move while they are read; parents are always viewers of the
// same shard.
func (l *LSC) worstParentRTTLocked(st viewerState, res *overlay.JoinResult) time.Duration {
	if res == nil || !res.Admitted {
		return 0
	}
	var worst time.Duration
	l.vmu.RLock()
	for _, n := range res.Viewer.Nodes {
		if n.Parent == nil {
			continue
		}
		if p, ok := l.viewers[n.Parent.Viewer]; ok {
			if rt := 2 * l.cfg.Latency.Delay(st.nodeIdx, p.nodeIdx); rt > worst {
				worst = rt
			}
		}
	}
	l.vmu.RUnlock()
	return worst
}

// Viewer returns the overlay record for a joined viewer. The record is
// shard-owned; use ViewerParents for a stable copy.
func (l *LSC) Viewer(id model.ViewerID) (*overlay.Viewer, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shard.Viewer(id)
}

// ViewerParents returns a copy of a viewer's per-stream parents ("" = CDN),
// taken atomically against shard mutations.
func (l *LSC) ViewerParents(id model.ViewerID) (map[model.StreamID]model.ViewerID, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.shard.Viewer(id)
	if !ok {
		return nil, false
	}
	out := make(map[model.StreamID]model.ViewerID, len(v.Nodes))
	for i, sid := range v.AcceptedStreams() {
		if p := v.Nodes[i].Parent; p == nil {
			out[sid] = ""
		} else {
			out[sid] = p.Viewer
		}
	}
	return out, true
}

// Params returns the session-wide overlay constants (immutable).
func (l *LSC) Params() overlay.Params {
	return l.shard.Params()
}

// Snapshot summarizes the shard's overlay.
func (l *LSC) Snapshot() overlay.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shard.Snapshot()
}

// QuickSnapshot summarizes the shard's counters without the per-viewer
// distributions — the sampling path of the workload runners.
func (l *LSC) QuickSnapshot() overlay.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shard.QuickSnapshot()
}

// RefreshAll runs the periodic delay-layer adaptation on this shard. A
// killed shard has nothing to adapt and reports zero changes.
func (l *LSC) RefreshAll() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down.Load() {
		return 0
	}
	changed := l.shard.RefreshAll()
	l.epoch.Add(1)
	l.emitDropsLocked()
	return changed
}

// Validate checks the shard's overlay invariants.
func (l *LSC) Validate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shard.Validate()
}

// CDNImplied returns the per-stream egress this shard's trees imply.
func (l *LSC) CDNImplied() map[model.StreamID]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shard.CDNImplied()
}

// DumpTrees renders the shard's dissemination trees.
func (l *LSC) DumpTrees() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shard.DumpTrees()
}
