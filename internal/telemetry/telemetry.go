// Package telemetry is the control plane's shared observability layer:
// lock-free log-bucketed latency histograms recorded around every
// control-plane operation, per-(op,outcome) counters, gauges for the
// in-flight pipeline window and per-region occupancy, and a flight
// recorder that keeps the most recent operations exceeding a slow-op
// threshold with a per-phase timing breakdown.
//
// The layer is effectively free when unobserved: every hot-path hook is
// gated on one atomic load (Collector.enabled, the same idiom as the
// event bus's Subscribe gate), and a disabled OpTrace is a nil-collector
// no-op that never touches the clock. When enabled, a traced operation
// costs a handful of monotonic clock reads and atomic adds — pinned
// below 5% of the join path by BenchmarkJoin/telemetry=on vs off.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Op enumerates the traced control-plane operations.
type Op uint8

const (
	OpJoin Op = iota
	OpLeave
	OpViewChange
	OpMigrate
	// OpBatchPrepare and OpBatchAdmit time the two pipeline phases of
	// JoinBatch as whole batches (per-item joins are OpJoin).
	OpBatchPrepare
	OpBatchAdmit
	// OpRecovery times a full RecoverRegion rebuild.
	OpRecovery
	NumOps int = iota
)

var opNames = [NumOps]string{
	"join", "leave", "view_change", "migrate",
	"batch_prepare", "batch_admit", "recovery",
}

// String returns the stable label used in exposition ("join",
// "view_change", …).
func (op Op) String() string {
	if int(op) < NumOps {
		return opNames[op]
	}
	return "unknown"
}

// Phase enumerates the timed segments of an operation. Phase times sum to
// at most the operation total; the remainder (routing-table writes,
// protocol-delay computation) is deliberately unattributed.
type Phase uint8

const (
	// PhaseRoute is GSC work: ID claim, node allocation, route lookup.
	PhaseRoute Phase = iota
	// PhasePrepare is shard-side registration / migration extract.
	PhasePrepare
	// PhaseAdmit is the overlay construction pipeline under the shard lock.
	PhaseAdmit
	// PhaseReserve is the CDN egress reserve inside overlay admission
	// (the only cross-shard contention of the hot path), carved out of
	// PhaseAdmit when the overlay's reserve clock is armed.
	PhaseReserve
	// PhasePublish is journaling plus event-bus publication.
	PhasePublish
	NumPhases int = iota
)

var phaseNames = [NumPhases]string{"route", "prepare", "admit", "reserve", "publish"}

// String returns the stable phase label.
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Outcome classifies how a traced operation ended. The classification
// matches httpapi's /metricz totals exactly so the two surfaces reconcile:
// join ok/rejected ↔ joins_accepted/joins_rejected, migrate ok ↔
// migrations_landed, migrate rejected ↔ migrations_bounced, and so on.
type Outcome uint8

const (
	// OutcomeOK is a fully successful operation (join admitted, migrate
	// landed on its destination).
	OutcomeOK Outcome = iota
	// OutcomeRejected is admission control refusing the request (for a
	// migrate: the viewer bounced — restored on source or departed).
	OutcomeRejected
	// OutcomeError is any other failure (unknown viewer, shard down,
	// substrate exhausted, context cancelled).
	OutcomeError
	// OutcomeNoop is an operation that had nothing to do (same-region
	// migrate); counted under neither success nor rejection, mirroring
	// /metricz.
	OutcomeNoop
	NumOutcomes int = iota
)

var outcomeNames = [NumOutcomes]string{"ok", "rejected", "error", "noop"}

// String returns the stable outcome label.
func (o Outcome) String() string {
	if int(o) < NumOutcomes {
		return outcomeNames[o]
	}
	return "unknown"
}

// defaultSlowOpThreshold is the flight-recorder capture bar when the
// owner doesn't configure one.
const defaultSlowOpThreshold = 25 * time.Millisecond

// Collector owns the telemetry state of one control plane: per-(op,region)
// histograms, per-(op,outcome) counters, gauges, and the slow-op ring.
// All recording methods are safe for concurrent use and lock-free except
// the rare slow-op capture (a short mutex on the ring).
type Collector struct {
	enabled   atomic.Bool
	slowNanos atomic.Int64
	inflight  atomic.Int64

	regions  int
	ringSize int
	// armed holds the histograms and the slow-op ring. Only an armed
	// collector writes them, so the first Enable allocates them (armOnce)
	// and publishes them before it stores enabled: a hook that saw enabled
	// finds them, and a never-armed collector holds none.
	armed   atomic.Pointer[armedState]
	armOnce sync.Once
	// counts is outside the histograms so outcome classification survives
	// even for operations whose duration lands in the same bucket.
	counts [NumOps][NumOutcomes]atomic.Uint64

	// occupancy, when set, reports the live viewer count per region at
	// snapshot time (occupancy is shard state, not an event stream, so
	// polling it on scrape is free for the hot path). Set once before the
	// collector is shared; not synchronized.
	occupancy func() []int
}

// armedState is what recording writes: the histograms and the flight
// recorder.
type armedState struct {
	// hists[op] has regions+1 entries: index 0 collects operations that
	// failed before (or without) a region attribution, index r+1 is
	// region r's shard.
	hists [NumOps][]Histogram
	rec   recorder
}

// New builds a collector for a control plane with the given region count.
// ringSize bounds the flight recorder (<=0 selects the default of 256).
// The collector starts disabled: every hot-path hook is one atomic load
// until Enable, and its histograms and ring are allocated only then.
func New(regions, ringSize int) *Collector {
	c := &Collector{regions: regions, ringSize: ringSize}
	c.slowNanos.Store(int64(defaultSlowOpThreshold))
	return c
}

// Enable arms recording, allocating the histograms and the slow-op ring on
// the first call. Idempotent.
func (c *Collector) Enable() {
	c.armOnce.Do(func() {
		a := &armedState{}
		for op := range a.hists {
			a.hists[op] = make([]Histogram, c.regions+1)
		}
		a.rec.init(c.ringSize)
		c.armed.Store(a)
	})
	c.enabled.Store(true)
}

// Disable disarms recording; in-flight traces finish as no-ops on their
// next gate check. Accumulated state is retained.
func (c *Collector) Disable() { c.enabled.Store(false) }

// Enabled reports whether recording is armed.
func (c *Collector) Enabled() bool { return c.enabled.Load() }

// EnabledFlag exposes the gate itself, so other layers (the overlay's
// reserve clock) can share the exact same single-atomic-load check.
func (c *Collector) EnabledFlag() *atomic.Bool { return &c.enabled }

// SetSlowOpThreshold sets the flight-recorder capture bar: operations
// taking at least d are recorded. d <= 0 captures every traced operation.
func (c *Collector) SetSlowOpThreshold(d time.Duration) { c.slowNanos.Store(int64(d)) }

// SlowOpThreshold returns the current capture bar.
func (c *Collector) SlowOpThreshold() time.Duration { return time.Duration(c.slowNanos.Load()) }

// SetOccupancyFunc installs the per-region occupancy probe polled at
// snapshot time. Call once during construction, before the collector is
// shared.
func (c *Collector) SetOccupancyFunc(fn func() []int) { c.occupancy = fn }

// SetInFlight records the current depth of the pipelined dispatch window.
func (c *Collector) SetInFlight(n int64) {
	if c == nil {
		return
	}
	c.inflight.Store(n)
}

// AddInFlight adjusts the in-flight gauge by delta (the HTTP server's
// per-request accounting).
func (c *Collector) AddInFlight(delta int64) {
	if c == nil {
		return
	}
	c.inflight.Add(delta)
}

// InFlight returns the current in-flight gauge.
func (c *Collector) InFlight() int64 { return c.inflight.Load() }

// OpTrace times one control-plane operation. A trace is started on the
// caller's stack with StartOp, carried by value through the operation
// (preparedJoin embeds one across the batch prepare→admit pipeline),
// advanced at phase boundaries with Phase, and closed with Finish. A
// trace started while the collector is disabled has a nil collector and
// every method is an immediate no-op.
type OpTrace struct {
	col    *Collector
	op     Op
	start  time.Time
	mark   time.Time
	phases [NumPhases]time.Duration
}

// StartOp initializes tr for op. When the collector is disabled (or nil)
// the trace is inert: the only cost was one atomic load.
func (c *Collector) StartOp(tr *OpTrace, op Op) {
	if c == nil || !c.enabled.Load() {
		tr.col = nil
		return
	}
	*tr = OpTrace{col: c, op: op}
	tr.start = time.Now()
	tr.mark = tr.start
}

// Active reports whether the trace is recording.
func (tr *OpTrace) Active() bool { return tr != nil && tr.col != nil }

// Phase closes the currently open segment, attributing the time since the
// last boundary (or start) to p. Safe on a nil trace, so shard methods can
// take an optional *OpTrace without branching at every call site.
func (tr *OpTrace) Phase(p Phase) {
	if tr == nil || tr.col == nil {
		return
	}
	now := time.Now()
	tr.phases[p] += now.Sub(tr.mark)
	tr.mark = now
}

// Carve moves d out of phase from into phase to — used when an inner
// layer measured a sub-segment (the CDN reserve inside overlay admit)
// that the outer boundary timing would otherwise swallow.
func (tr *OpTrace) Carve(from, to Phase, d time.Duration) {
	if tr == nil || tr.col == nil || d <= 0 {
		return
	}
	if d > tr.phases[from] {
		d = tr.phases[from]
	}
	tr.phases[from] -= d
	tr.phases[to] += d
}

// Finish records the operation: total duration into the (op,region)
// histogram, one (op,outcome) count, and — when the total meets the
// slow-op threshold — a flight-recorder entry with the phase breakdown.
// region < 0 records under the unattributed slot. Finish is idempotent:
// the trace disarms itself, so a second Finish (an abandoned prepared
// join whose admit already settled it) is a no-op.
func (tr *OpTrace) Finish(region int, viewer string, out Outcome) {
	if tr == nil {
		return
	}
	c := tr.col
	if c == nil {
		return
	}
	tr.col = nil
	total := time.Since(tr.start)
	slot := 0
	if region >= 0 && region < c.regions {
		slot = region + 1
	}
	a := c.armed.Load() // published before the enabled flag StartOp saw
	a.hists[tr.op][slot].Record(total)
	c.counts[tr.op][out].Add(1)
	if total >= time.Duration(c.slowNanos.Load()) {
		a.rec.add(SlowOp{
			Op:      tr.op,
			Viewer:  viewer,
			Region:  region,
			Outcome: out,
			Total:   total,
			Phases:  tr.phases,
			At:      time.Now(),
		})
	}
}

// Record is the traceless fast path for operations that need only the
// histogram and counter (no phase breakdown, no slow-op capture).
func (c *Collector) Record(op Op, region int, d time.Duration, out Outcome) {
	if c == nil || !c.enabled.Load() {
		return
	}
	slot := 0
	if region >= 0 && region < c.regions {
		slot = region + 1
	}
	c.armed.Load().hists[op][slot].Record(d)
	c.counts[op][out].Add(1)
}

// OpSnapshot is the frozen state of one operation kind.
type OpSnapshot struct {
	Op Op
	// Regions holds one histogram per shard; index 0 is the unattributed
	// slot, index r+1 is region r.
	Regions []HistSnapshot
	// Outcomes are the cumulative per-outcome counts.
	Outcomes [NumOutcomes]uint64
}

// Total merges the per-region histograms into one distribution.
func (o OpSnapshot) Total() HistSnapshot {
	var t HistSnapshot
	for _, r := range o.Regions {
		t.Merge(r)
	}
	return t
}

// OutcomeTotal sums every outcome count — by construction equal to the
// merged histogram's Count (each Finish does exactly one Record and one
// counter add).
func (o OpSnapshot) OutcomeTotal() uint64 {
	var t uint64
	for _, n := range o.Outcomes {
		t += n
	}
	return t
}

// Snapshot is a frozen copy of the collector: histograms, counters,
// gauges, and the slow-op ring, capturable on demand.
type Snapshot struct {
	Enabled       bool
	SlowThreshold time.Duration
	InFlight      int64
	// Occupancy is the viewer count per region at capture time: the records
	// each shard holds, admitted or rejected, not joins still in flight (nil
	// when no probe is installed).
	Occupancy []int
	Ops       []OpSnapshot
	SlowOps   []SlowOp
	// SlowOpsSeen counts every slow-op capture ever, including entries
	// the ring has since overwritten.
	SlowOpsSeen uint64
}

// Snapshot captures the collector's current state. Safe concurrently with
// recording and with Enable; the copy is internally consistent per counter
// but not across counters (a scrape racing an operation may see its
// histogram sample and not its outcome count, or vice versa — totals
// reconcile at quiescence). A never-armed collector reports empty
// histograms and no slow ops, exactly as an armed one that recorded nothing.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Enabled:       c.enabled.Load(),
		SlowThreshold: time.Duration(c.slowNanos.Load()),
		InFlight:      c.inflight.Load(),
		Ops:           make([]OpSnapshot, NumOps),
	}
	if c.occupancy != nil {
		s.Occupancy = c.occupancy()
	}
	a := c.armed.Load()
	for op := range s.Ops {
		os := OpSnapshot{Op: Op(op), Regions: make([]HistSnapshot, c.regions+1)}
		if a != nil {
			for i := range a.hists[op] {
				os.Regions[i] = a.hists[op][i].Snapshot()
			}
		}
		for out := range os.Outcomes {
			os.Outcomes[out] = c.counts[op][out].Load()
		}
		s.Ops[op] = os
	}
	if a != nil {
		s.SlowOps, s.SlowOpsSeen = a.rec.snapshot()
	}
	return s
}
