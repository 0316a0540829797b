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
// region proceed concurrently with every other region. One lock, mu, guards
// the whole shard — the single-threaded overlay, the registry, and the
// recovery journal — and every critical section releases it with a deferred
// unlock. A viewer enters the registry only inside a shard admission (join,
// admitMigrant, restoreMigrant), right before the overlay call, and leaves it
// in the critical section that removes its overlay record, so the registry
// holds exactly the overlay's records (Validate checks it). RecoverRegion
// rebuilds under mu and runs its evacuation wave after releasing it.
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
	// viewers is the shard's viewer registry: the latency node and admission
	// capacities of every viewer the overlay holds a record of. Guarded by mu.
	viewers map[model.ViewerID]viewerState
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
// using the shard-local registry; the lookup never leaves the shard. The
// overlay calls it only from inside a shard operation, so mu is held. A miss
// is a registration-order bug — a viewer is registered right before its
// overlay insertion — so it panics instead of fabricating a delay. The
// overlay calls it when a tree edge forms and caches the result, so a change
// of the delay scale reaches existing edges only through RefreshAll (which
// ShiftDelays runs) or a shard rebuild.
func (l *LSC) propFunc() overlay.PropFunc {
	return func(a, b model.ViewerID) time.Duration {
		va, okA := l.viewers[a]
		vb, okB := l.viewers[b]
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

// viewerCount returns the number of viewers the shard holds a record of,
// admitted or rejected — the occupancy gauge telemetry polls at snapshot
// time.
func (l *LSC) viewerCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.viewers)
}

// join registers a routed viewer and runs its overlay admission, returning
// the subscription round trip to the farthest parent, measured while the
// shard lock still pins the resulting topology.
func (l *LSC) join(st viewerState, view model.View, tr *telemetry.OpTrace) (*overlay.JoinResult, time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down.Load() {
		return nil, 0, l.downErr()
	}
	l.viewers[st.info.ID] = st
	res, err := l.shard.Join(st.info, view)
	l.epoch.Add(1)
	tr.Phase(telemetry.PhaseAdmit)
	if err != nil {
		delete(l.viewers, st.info.ID)
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
	st, ok := l.viewers[id]
	delete(l.viewers, id)
	l.journalLocked(journalEntry{op: opLeave, id: id})
	l.emit(Event{Kind: EventDeparted, Viewer: id})
	l.emitDropsLocked()
	tr.Phase(telemetry.PhasePublish)
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
	vst, ok := l.viewers[id]
	delete(l.viewers, id)
	l.journalLocked(journalEntry{op: opMigrantOut, id: id})
	l.emit(Event{Kind: EventMigratedOut, Viewer: id, From: l.Region, To: to, Cause: cause})
	l.emitDropsLocked()
	if !ok {
		return overlay.MigrationState{}, 0, fmt.Errorf("lsc region %d: viewer %s extracted from overlay but was never registered", l.Region, id)
	}
	return st, vst.nodeIdx, nil
}

// admitMigrant registers an extracted viewer on this (destination) shard and
// re-admits it. On success the arrival event is sequenced on this shard's
// ring; a rejection emits EventJoinRejected here and leaves the record
// question to keepIfRejected (see overlay.Manager.AdmitMigrant) — the
// registry entry goes with the record.
func (l *LSC) admitMigrant(nodeIdx int, st overlay.MigrationState, from trace.Region, cause string, keepIfRejected bool, tr *telemetry.OpTrace) (*overlay.JoinResult, time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down.Load() {
		return nil, 0, l.downErr()
	}
	vst := viewerState{nodeIdx: nodeIdx, info: st.Info}
	l.viewers[st.Info.ID] = vst
	res, err := l.shard.AdmitMigrant(st, keepIfRejected)
	l.epoch.Add(1)
	tr.Phase(telemetry.PhaseAdmit)
	if err != nil {
		delete(l.viewers, st.Info.ID)
		return nil, 0, err
	}
	tr.Carve(telemetry.PhaseAdmit, telemetry.PhaseReserve, res.CDNReserve)
	if res.Admitted || keepIfRejected {
		// Journal only outcomes that left a record behind; replay re-admits
		// with keep=true so a replay-time rejection still leaves the viewer
		// routed as a rejected record.
		l.journalLocked(journalEntry{op: opMigrantIn, id: st.Info.ID, nodeIdx: nodeIdx, info: st.Info, req: st.Request})
	} else {
		delete(l.viewers, st.Info.ID)
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
func (l *LSC) restoreMigrant(nodeIdx int, st overlay.MigrationState, to trace.Region, reason RejectReason) (*overlay.JoinResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down.Load() {
		return nil, l.downErr()
	}
	l.viewers[st.Info.ID] = viewerState{nodeIdx: nodeIdx, info: st.Info}
	res, err := l.shard.AdmitMigrant(st, true)
	l.epoch.Add(1)
	if err != nil {
		delete(l.viewers, st.Info.ID)
		return nil, err
	}
	l.journalLocked(journalEntry{op: opMigrantIn, id: st.Info.ID, nodeIdx: nodeIdx, info: st.Info, req: st.Request})
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
	defer l.mu.Unlock()
	l.emit(Event{Kind: EventDeparted, Viewer: id})
}

// changeView re-admits a viewer with a new view and returns the new
// topology, the farthest-parent round trip, and the viewer's node index.
func (l *LSC) changeView(id model.ViewerID, view model.View, tr *telemetry.OpTrace) (*overlay.JoinResult, time.Duration, int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down.Load() {
		return nil, 0, 0, l.downErr()
	}
	// The registry lookup must come after the down check: a killed shard's
	// registry is empty, and a routed viewer probing it would read as unknown
	// instead of getting the typed ErrShardDown refusal.
	st, ok := l.viewers[id]
	if !ok {
		return nil, 0, 0, ErrUnknownViewer
	}
	res, err := l.shard.ChangeView(id, view)
	l.epoch.Add(1)
	tr.Phase(telemetry.PhaseAdmit)
	if err != nil {
		return nil, 0, 0, err
	}
	tr.Carve(telemetry.PhaseAdmit, telemetry.PhaseReserve, res.CDNReserve)
	l.journalLocked(journalEntry{op: opChangeView, id: id, view: view})
	l.emitJoinLocked(EventViewChanged, id, res)
	tr.Phase(telemetry.PhasePublish)
	return res, l.worstParentRTTLocked(st, res), st.nodeIdx, nil
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

// Validate checks the shard's overlay invariants and that the viewer
// registry holds exactly the overlay's records: an entry for every admitted
// or rejected viewer the shard knows, and for nobody else.
func (l *LSC) Validate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// The registry goes first: the overlay walk below looks up propagation
	// delays, which panic on a viewer the registry misses.
	for id := range l.viewers {
		if _, ok := l.shard.Viewer(id); !ok {
			return fmt.Errorf("registry: viewer %s has no overlay record", id)
		}
	}
	if n := l.shard.QuickSnapshot().Viewers; n != len(l.viewers) {
		return fmt.Errorf("registry: %d entries for %d overlay records", len(l.viewers), n)
	}
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
