package session

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"telecast/internal/fault"
	"telecast/internal/model"
	"telecast/internal/overlay"
	"telecast/internal/telemetry"
	"telecast/internal/trace"
)

// Fault injection and event-sourced shard recovery.
//
// A shard is armed by taking a snapshot (SnapshotRegion / EnableRecovery):
// the overlay state is exported slab-free, each viewer record with its
// latency node, and from then on every admission-relevant transition — join,
// leave, view change, migrant in/out — is appended to a journal under the
// shard's owner lock, in exactly the order the shard processed it. The
// per-shard event rings witness the same transitions but are a lossy
// observation path (no subscriber → no events, overflow → overwrite), so the
// journal is its own LSC-owned log with the payloads replay needs.
//
// KillRegion models a crash: the shard's in-memory overlay is discarded, its CDN egress released, and the down flag flips every routed
// operation to ErrShardDown. Routes and latency nodes survive — they are
// GSC-side state. RecoverRegion rebuilds the shard from the last snapshot
// (exact slab rebuild) plus a replay of the journal suffix, re-arms the
// journal, and evacuates viewers the rebuilt shard could no longer admit via
// the migration nucleus.

// journalOp enumerates the replayable shard transitions.
type journalOp uint8

const (
	opJoin journalOp = iota + 1
	opLeave
	opChangeView
	opMigrantIn
	opMigrantOut
)

// journalEntry is one recorded transition. info carries the admitted
// viewer's latency node; view is cloned at record time so later caller-side
// mutation cannot corrupt the log; req is the preserved admission request of
// a migrant (immutable by contract).
type journalEntry struct {
	op   journalOp
	id   model.ViewerID
	info overlay.ViewerInfo
	view model.View
	req  model.ViewRequest
}

// shardRecorder is a shard's armed recovery state: the last snapshot and the
// journal of transitions since. Guarded by the LSC's mu.
type shardRecorder struct {
	seq     uint64 // transitions recorded since arming
	snapSeq uint64 // seq at the last snapshot
	snap    []byte // encoded shardSnapshot
	entries []journalEntry
}

// journalCompactFactor and journalCompactFloor bound the armed journal:
// once it holds more than journalCompactFactor entries per viewer record
// (counting at least journalCompactFloor viewers, so a small shard does not
// snapshot on every op), the shard takes a fresh snapshot and starts the
// journal over. A snapshot costs O(records), and one is taken per
// journalCompactFactor × records transitions, so the amortized cost per
// transition is constant and the journal never outgrows the record set by
// more than the factor.
const (
	journalCompactFactor = 4
	journalCompactFloor  = 64
)

// journalLocked appends a transition to the armed journal; a no-op on
// unarmed shards. Callers must hold mu and have applied the transition to
// the overlay, because a journal that outgrows its bound is compacted here
// into a snapshot of the shard as it stands.
func (l *LSC) journalLocked(e journalEntry) {
	if l.rec == nil {
		return
	}
	// The entry keeps its own copy of the caller's view. Copying here, past
	// the check above, spares a shard that journals nothing one map per op.
	if e.view.Orientations != nil {
		e.view = e.view.Clone()
	}
	l.rec.seq++
	l.rec.entries = append(l.rec.entries, e)
	if len(l.rec.entries) > journalCompactFactor*max(l.shard.Len(), journalCompactFloor) {
		// A failed snapshot leaves the previous recovery point and the whole
		// journal in place, which still recover the shard exactly; the next
		// transition tries again.
		_ = l.snapshotLocked()
	}
}

// journalLen is the length of the shard's armed journal, 0 when unarmed.
func (l *LSC) journalLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rec == nil {
		return 0
	}
	return len(l.rec.entries)
}

// longestJournal is Stats.JournalEntries: the longest journal of any shard.
func (c *Controller) longestJournal() int {
	n := 0
	for _, l := range c.lscs {
		n = max(n, l.journalLen())
	}
	return n
}

// shardSnapshot is the serialized recovery point: the overlay's exported
// state, whose viewer records carry their latency nodes.
type shardSnapshot struct {
	Region  int                `json:"region"`
	Seq     uint64             `json:"seq"`
	Overlay overlay.ShardState `json:"overlay"`
}

func decodeShardSnapshot(data []byte) (*shardSnapshot, error) {
	var s shardSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("session: decode shard snapshot: %w", err)
	}
	return &s, nil
}

// snapshotLocked captures the shard's current state as the new recovery
// point and truncates the journal. Callers must hold mu with rec armed.
func (l *LSC) snapshotLocked() error {
	data, err := json.Marshal(shardSnapshot{
		Region:  int(l.Region),
		Seq:     l.rec.seq,
		Overlay: *l.shard.ExportState(),
	})
	if err != nil {
		return fmt.Errorf("session: snapshot region %d: %w", l.Region, err)
	}
	l.rec.snap = data
	l.rec.snapSeq = l.rec.seq
	// Clear before truncating so the kept backing array does not pin the
	// compacted entries' views.
	clear(l.rec.entries)
	l.rec.entries = l.rec.entries[:0]
	return nil
}

// SnapshotRegion arms (or re-arms) a region's recovery: takes a snapshot and
// starts journaling from it. Until the first snapshot a region cannot be
// killed — there is nothing to recover from.
func (c *Controller) SnapshotRegion(region trace.Region) error {
	l, ok := c.lscs[region]
	if !ok {
		return fmt.Errorf("session snapshot: %w %d", ErrUnknownRegion, region)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down.Load() {
		return fmt.Errorf("session snapshot region %d: %w", region, ErrShardDown)
	}
	if l.rec == nil {
		l.rec = &shardRecorder{}
	}
	return l.snapshotLocked()
}

// EnableRecovery arms every region: each shard gets a snapshot and journals
// every transition from here on.
func (c *Controller) EnableRecovery() error {
	for r := 0; r < c.cfg.Latency.NumRegions(); r++ {
		if err := c.SnapshotRegion(trace.Region(r)); err != nil {
			return err
		}
	}
	return nil
}

// ShardDown reports whether a region's shard is currently killed.
func (c *Controller) ShardDown(region trace.Region) bool {
	l, ok := c.lscs[region]
	return ok && l.down.Load()
}

// KillRegion models a region crash: the shard's overlay state vanishes
// (replaced by a fresh empty manager, proving recovery uses only the
// snapshot and journal), its implied CDN egress is released back to
// the shared substrate, and every subsequent operation routed to the region
// fails with ErrShardDown. Routes and latency-matrix nodes are GSC-side
// state and survive the crash, which is what lets recovery re-bind the same
// viewers. The region must have been armed by a snapshot first.
func (c *Controller) KillRegion(region trace.Region) error {
	l, ok := c.lscs[region]
	if !ok {
		return fmt.Errorf("session kill: %w %d", ErrUnknownRegion, region)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rec == nil {
		return fmt.Errorf("session kill region %d: recovery not armed (snapshot first)", region)
	}
	if l.down.Load() {
		return fmt.Errorf("session kill region %d: %w (already down)", region, ErrShardDown)
	}
	for id, mbps := range l.shard.CDNImplied() {
		_ = c.cdn.Release(id, mbps)
	}
	if _, err := l.newShard(c.cdn, c.params); err != nil {
		return fmt.Errorf("session kill region %d: %w", region, err)
	}
	l.down.Store(true)
	l.epoch.Add(1)
	return nil
}

// RecoveryReport summarizes one shard rebuild.
type RecoveryReport struct {
	Region trace.Region
	// SnapshotViewers is the viewer count of the snapshot image; Replayed
	// the journal entries applied past it; ReplayDiverged the replayed
	// operations whose outcome differed from the original timeline (a
	// re-admission rejected under post-snapshot resource pressure — the
	// viewer stays routed as a rejected record).
	SnapshotViewers int
	Replayed        int
	ReplayDiverged  int
	// Degraded reports that the exact slab rebuild failed (the CDN could
	// not cover the snapshot's implied egress) and the shard was rebuilt by
	// re-admitting every snapshot viewer through normal admission instead.
	Degraded bool
	// Evacuated counts post-recovery rejected records handed to other
	// regions; EvacuationsLanded how many a destination admitted.
	Evacuated         int
	EvacuationsLanded int
	// Viewers is the shard's viewer record count after recovery.
	Viewers int
}

// RecoverRegion rebuilds a killed shard from its snapshot plus the journal
// suffix, re-arms the journal at the recovered state, clears the down flag,
// and evacuates viewers the rebuilt shard could no longer admit (rejected
// records) to the other regions under the depart-on-reject policy. The
// recovered shard passes overlay validation before it goes live; the
// in-flight counter keeps the online validator retrying rather than
// observing the half-built shard.
func (c *Controller) RecoverRegion(ctx context.Context, region trace.Region) (RecoveryReport, error) {
	rep := RecoveryReport{Region: region}
	l, ok := c.lscs[region]
	if !ok {
		return rep, fmt.Errorf("session recover: %w %d", ErrUnknownRegion, region)
	}
	c.recovering.Add(1)
	defer c.recovering.Add(-1)
	// One trace per rebuild: snapshot decode under prepare, the slab
	// rebuild plus journal replay under admit, the re-arm
	// and go-live under publish. The evacuation wave runs its own Migrate
	// traces, so its time stays in the recovery total but unattributed.
	var tr telemetry.OpTrace
	c.tel.StartOp(&tr, telemetry.OpRecovery)
	rejected, err := c.rebuildShard(l, &rep, &tr)
	if err != nil {
		tr.Finish(int(region), "", telemetry.OutcomeError)
		return rep, err
	}

	// Evacuation wave, outside the shard lock: rejected records are live
	// routes serving nothing; hand them to the other regions round-robin. A
	// refused evacuee is restored on the recovered shard as a rejected record
	// rather than departed — the control plane never drops a route its
	// callers still hold, so workload-side liveness tracking stays coherent
	// across a kill/recover cycle.
	if len(rejected) > 0 && len(c.lscs) > 1 {
		var others []trace.Region
		for r := range c.lscs {
			if r != region {
				others = append(others, r)
			}
		}
		sort.Slice(others, func(i, j int) bool { return others[i] < others[j] })
		migs := make([]Migration, len(rejected))
		for i, id := range rejected {
			migs[i] = Migration{ID: id, Req: MigrateRequest{
				To:     others[i%len(others)],
				Reason: "evacuation",
			}}
		}
		rep.Evacuated = len(migs)
		for _, out := range c.MigrateBatch(ctx, migs) {
			if out.Err == nil && out.Outcome != nil && out.Outcome.Result != nil && out.Outcome.Result.Admitted {
				rep.EvacuationsLanded++
			}
		}
	}
	tr.Finish(int(region), "", telemetry.OutcomeOK)
	return rep, nil
}

// rebuildShard is RecoverRegion's locked half: it rebuilds the killed shard
// under mu, brings it live, and returns the IDs of its rejected records — the
// evacuation wave's input — in sorted order.
func (c *Controller) rebuildShard(l *LSC, rep *RecoveryReport, tr *telemetry.OpTrace) ([]model.ViewerID, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.down.Load() {
		return nil, fmt.Errorf("session recover region %d: shard is not down", l.Region)
	}
	rec := l.rec
	snap, err := decodeShardSnapshot(rec.snap)
	if err != nil {
		return nil, err
	}
	rep.SnapshotViewers = len(snap.Overlay.Viewers)
	tr.Phase(telemetry.PhasePrepare)

	// Stage 1: exact rebuild of the snapshot image into fresh slabs. If the
	// CDN cannot cover the snapshot's implied egress anymore (a collapse
	// shrank it since), fall back to re-admitting every snapshot viewer
	// through the normal admission pipeline — degraded but total. Each
	// rebuild installs its manager as l.shard first, so propagation lookups
	// resolve through the records it rebuilds; a failed rebuild puts the
	// killed shard's empty manager back.
	killed := l.shard
	mgr, err := l.newShard(c.cdn, c.params)
	if err == nil {
		if err = mgr.Restore(&snap.Overlay); err != nil {
			rep.Degraded = true
			mgr, err = c.readmitFromSnapshot(l, &snap.Overlay)
		}
	}
	if err != nil {
		l.shard = killed
		return nil, fmt.Errorf("session recover region %d: %w", l.Region, err)
	}

	// Stage 2: event-sourced replay of the journal suffix, in shard order.
	// Replay is biased toward keeping records: a formerly-admitted viewer
	// rejected on replay stays routed as a rejected record and is handled
	// by the evacuation wave.
	for i := range rec.entries {
		e := &rec.entries[i]
		rep.Replayed++
		switch e.op {
		case opJoin:
			if res, err := mgr.Join(e.info, e.view); err != nil || !res.Admitted {
				rep.ReplayDiverged++
			}
		case opLeave, opMigrantOut:
			if err := mgr.Leave(e.id); err != nil {
				rep.ReplayDiverged++
			}
		case opChangeView:
			if res, err := mgr.ChangeView(e.id, e.view); err != nil || !res.Admitted {
				rep.ReplayDiverged++
			}
		case opMigrantIn:
			if res, err := mgr.AdmitMigrant(overlay.MigrationState{Info: e.info, Request: e.req}, true); err != nil || !res.Admitted {
				rep.ReplayDiverged++
			}
		}
	}

	rep.Viewers = mgr.Len()
	tr.Phase(telemetry.PhaseAdmit)
	l.emitDropsLocked()

	// Re-arm at the recovered state and go live.
	if err := l.snapshotLocked(); err != nil {
		return nil, err
	}
	l.down.Store(false)
	l.epoch.Add(1)
	tr.Phase(telemetry.PhasePublish)

	var rejected []model.ViewerID
	for _, id := range mgr.SortedViewerIDs() {
		if v, ok := mgr.Viewer(id); ok && v.Rejected {
			rejected = append(rejected, id)
		}
	}
	return rejected, nil
}

// readmitFromSnapshot is the degraded rebuild: a fresh shard, installed as
// l.shard, repopulated by re-admitting every snapshot viewer through the
// normal §IV pipeline, in deterministic (sorted) order. Admission outcomes
// may differ from the snapshot's — that is the point: the current substrate
// decides.
func (c *Controller) readmitFromSnapshot(l *LSC, st *overlay.ShardState) (*overlay.Manager, error) {
	mgr, err := l.newShard(c.cdn, c.params)
	if err != nil {
		return nil, err
	}
	for i := range st.Viewers {
		vs := &st.Viewers[i]
		info := overlay.ViewerInfo{ID: vs.ID, InboundMbps: vs.InboundMbps, OutboundMbps: vs.OutboundMbps, Node: vs.Node}
		if _, err := mgr.Join(info, vs.ModelView()); err != nil {
			return nil, fmt.Errorf("degraded rebuild: viewer %s: %w", vs.ID, err)
		}
	}
	return mgr, nil
}

// AdaptationDrops returns the cumulative count of per-stream adaptation
// drops across every shard — the DrainDrops log surfaced as a counter.
func (c *Controller) AdaptationDrops() uint64 {
	var total uint64
	for _, l := range c.lscs {
		total += l.drops.Load()
	}
	return total
}

// ScaleCDN rescales the shared CDN egress to factor× the configured
// baseline (fault injection: CDNCollapse; factor 1 restores). A no-op on an
// unbounded CDN.
func (c *Controller) ScaleCDN(factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("session: cdn scale factor %v must be positive", factor)
	}
	base := c.cfg.CDN.OutboundCapacityMbps
	if base <= 0 {
		return nil
	}
	c.cdn.SetOutboundCapacityMbps(base * factor)
	return nil
}

// ShiftDelays rescales the propagation-delay landscape by factor and re-runs
// the delay-layer adaptation on every live shard, so κ-layer assignments
// converge to the shifted landscape (dropping subscriptions that no longer
// fit their d_max bound — visible on the AdaptationDrops counter).
func (c *Controller) ShiftDelays(factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("session: delay shift factor %v must be positive", factor)
	}
	c.delayScale.Store(math.Float64bits(factor))
	c.ChurnProducers()
	return nil
}

// ChurnProducers runs the periodic delay-layer adaptation pass on every live
// shard (fault injection: ProducerChurn).
func (c *Controller) ChurnProducers() {
	for r := 0; r < c.cfg.Latency.NumRegions(); r++ {
		if l, ok := c.lscs[trace.Region(r)]; ok {
			l.RefreshAll()
		}
	}
}

// Inject implements fault.Injector: the controller is the canonical
// execution seam for fault plans.
func (c *Controller) Inject(ctx context.Context, f fault.Fault) error {
	switch f.Kind {
	case fault.Snapshot:
		return c.SnapshotRegion(f.Region)
	case fault.RegionOutage:
		return c.KillRegion(f.Region)
	case fault.RegionRecover:
		_, err := c.RecoverRegion(ctx, f.Region)
		return err
	case fault.CDNCollapse:
		return c.ScaleCDN(f.Factor)
	case fault.DelayShift:
		return c.ShiftDelays(f.Factor)
	case fault.ProducerChurn:
		c.ChurnProducers()
		return nil
	default:
		return fmt.Errorf("session: unknown fault kind %v", f.Kind)
	}
}

var _ fault.Injector = (*Controller)(nil)
