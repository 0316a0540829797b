// Package session implements the 4D TeleCast control plane of §III: a
// Global Session Controller (GSC) that monitors producers and routes viewer
// requests to region-based Local Session Controllers (LSCs), the viewer join
// protocol (Fig. 5), the stream-subscription protocol (Fig. 6), and the
// system adaptation of §VI — two-phase view changes served instantly from
// the CDN while the normal join runs in the background, and victim recovery
// on departures.
//
// The control plane is sharded the way the paper's architecture implies:
// each LSC is an independently-locked shard that processes joins,
// departures, and view changes for its region concurrently with every other
// region, while the GSC is reduced to a thread-safe router (viewer → owning
// shard, plus latency-matrix node placement) and the CDN is the only shared
// substrate, arbitrated by its lock-free check-and-hold of egress.
// Topologies are formed per (LSC, view group): each LSC runs its own overlay
// shard over its cluster's viewers — exactly the paper's split between
// centralized distribution and region-local P2P management.
package session

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/layering"
	"telecast/internal/model"
	"telecast/internal/overlay"
	"telecast/internal/telemetry"
	"telecast/internal/trace"
)

// Config assembles a 4D TeleCast session. NewController starts from the
// paper's evaluation defaults and each Option refines one part of it.
type Config struct {
	// Producers is the static producer-side session description.
	Producers *model.Session
	// CDN bounds the shared distribution substrate.
	CDN cdn.Config
	// Buff, Kappa: the delay-layer geometry (Δ comes from CDN.Delta).
	Buff  time.Duration
	Kappa int
	// DMax is the viewer-side end-to-end delay bound.
	DMax time.Duration
	// Proc is δ, the per-hop forwarding/processing delay at viewers.
	Proc time.Duration
	// CutoffDF is the df threshold for view composition.
	CutoffDF float64
	// Latency is the all-pairs propagation-delay substrate. Node 0 hosts
	// the GSC; the first node of each region hosts that region's LSC and
	// CDN edge; viewers consume subsequent indices.
	Latency *trace.LatencyMatrix
	// GSCProc and LSCProc model controller processing time per protocol
	// step (request parsing, bandwidth allocation, topology formation).
	GSCProc time.Duration
	LSCProc time.Duration
	// StrictFastPath makes the view-change fast path respect the CDN
	// egress bound. The paper serves view changes from the CDN
	// unconditionally (the reservation is transient and absorbed by the
	// edge caches), which is the default here too.
	StrictFastPath bool
	// EventBuffer sizes the per-shard event rings and subscriber channels
	// of the Subscribe stream; 0 means 4096. The rings are allocated by the
	// first Subscribe, so a controller nobody subscribes to holds none.
	EventBuffer int
	// Telemetry arms the latency-histogram/flight-recorder layer at
	// construction. The collector always exists (Controller.Telemetry())
	// and can be enabled later; when disarmed every hook costs one atomic
	// load.
	Telemetry bool
	// SlowOpThreshold sets the flight recorder's capture bar; 0 keeps the
	// telemetry default (25 ms). Negative captures every traced op.
	SlowOpThreshold time.Duration
}

// defaultEventBuffer is the ring/channel capacity when Config.EventBuffer
// is zero.
const defaultEventBuffer = 4096

// defaultConfig mirrors the paper's evaluation parameters for a given
// producer session and latency matrix: Δ=60 s via cdn.DefaultConfig,
// d_buff=300 ms, κ=2, d_max=65 s, 25 s cache implied by d_max−Δ−d_buff.
func defaultConfig(producers *model.Session, lat *trace.LatencyMatrix) Config {
	return Config{
		Producers: producers,
		CDN:       cdn.DefaultConfig(),
		Buff:      300 * time.Millisecond,
		Kappa:     2,
		DMax:      65 * time.Second,
		Proc:      100 * time.Millisecond,
		CutoffDF:  0.5,
		Latency:   lat,
		GSCProc:   20 * time.Millisecond,
		LSCProc:   60 * time.Millisecond,
	}
}

// Controller is the GSC plus its LSC shard fleet; the public entry point for
// joins, departures, and view changes. It is safe for concurrent use:
// requests for different regions run in parallel on their shards, and the
// GSC itself only routes.
type Controller struct {
	cfg  Config
	cdn  *cdn.CDN
	lscs map[trace.Region]*LSC // immutable after construction

	gscNode int
	nodes   nodeAllocator

	// routes is the GSC's viewer → owning-shard map, striped by viewer-ID
	// hash so batch routing never funnels through one lock (routes.go).
	routes routeTable

	// migrations counts in-flight cross-region handoffs; recovering counts
	// in-flight shard rebuilds. The online validator treats either being
	// non-zero like an epoch change: skip this attempt and retry.
	migrations atomic.Int64
	recovering atomic.Int64

	// params is the overlay parameter block shared by every shard, kept for
	// rebuilding a killed shard's manager during recovery.
	params overlay.Params

	// delayScale holds math.Float64bits of the propagation-delay multiplier
	// (fault injection: DelayShift). Zero means unset, i.e. scale 1.
	delayScale atomic.Uint64

	monitor atomic.Pointer[Monitor]

	// bus fans control-plane events from per-shard rings out to
	// subscribers; hwReported/hwStep drive the CDN high-water events.
	bus        *eventBus
	hwReported atomic.Uint64 // math.Float64bits of the last reported peak
	hwStep     float64

	// tel is the wall-clock observability layer: per-(op,region) latency
	// histograms, outcome counters, gauges, and the slow-op flight
	// recorder. Always constructed, disabled by default; distinct from the
	// *simulated protocol* delays of Fig. 14(c), which each op returns in
	// its outcome and the controller does not keep.
	tel *telemetry.Collector
}

// nodeAllocator hands out latency-matrix node indices to joining viewers and
// recycles the slots of departed ones. Every allocatable node belongs to one
// structure, its region's pool, which lists it only while it is free: a
// released node sits on the pool's stack (most recent on top, stamped from
// one allocator-wide release clock) and a never-allocated one lies at or past
// the pool's cursor, which walks the region's labels forward. A hinted or
// strict acquire claims in its region's pool. An unhinted acquire claims in
// the pool whose published top stamp is the largest, the most recent release
// overall, or, when no pool holds a released node, in the pool whose cursor
// is the smallest, the lowest never-allocated index. So the default order is
// derived from the pools, and a node leaves the only list it is on when it is
// claimed: the allocator's memory is bounded by the matrix size, not by how
// many nodes it has recycled.
//
// It is built for the striped batch-prepare path: each pool sits behind its
// own lock, the only lock the allocator has, and an unhinted acquire reads
// the pools' published stamps and cursors without locking, then rescans if
// another path emptied its pick first. The taken bitset is the ownership
// record; its atomic bit flips gate every claim and every release.
type nodeAllocator struct {
	lat *trace.LatencyMatrix
	max int
	// taken is the allocation gate: an index is owned by exactly the path
	// that sets its bit (claim), and listed again only by the release that
	// clears it.
	taken takenBits
	// pools is indexed by trace.Region, 0..R-1.
	pools []regionPool
	// clock stamps releases; a pool takes its stamp under its own lock, so
	// each stack is ordered by stamp.
	clock atomic.Uint64
}

// regionPool lists one region's free nodes.
type regionPool struct {
	mu   sync.Mutex
	free []releasedNode // released nodes, most recent last
	// top is free's top stamp, 0 when free is empty; cursor is the region's
	// lowest never-allocated index, max when none is left. Both are written
	// under mu and read without it by the unhinted scan.
	top    atomic.Uint64
	cursor atomic.Int64
}

// takenBits is a bitset of latency nodes, one bit per node in 64-bit words,
// each bit set and cleared by an atomic read-modify-write of its word.
type takenBits []atomic.Uint64

func newTakenBits(n int) takenBits { return make(takenBits, (n+63)/64) }

// claim sets idx's bit and reports whether this call set it.
func (b takenBits) claim(idx int) bool {
	bit := uint64(1) << (idx & 63)
	return b[idx>>6].Or(bit)&bit == 0
}

// release clears idx's bit and reports whether this call cleared it.
func (b takenBits) release(idx int) bool {
	bit := uint64(1) << (idx & 63)
	return b[idx>>6].And(^bit)&bit != 0
}

// releasedNode is a listed released node and its release stamp. The stamp is
// 64-bit so that it never wraps within a run.
type releasedNode struct {
	idx   int
	stamp uint64
}

// init makes [start, lat.Nodes()) allocatable, indexed by lat's regions.
// Must run before the first acquire.
func (a *nodeAllocator) init(lat *trace.LatencyMatrix, start int) {
	a.lat, a.max = lat, lat.Nodes()
	a.taken = newTakenBits(a.max)
	a.pools = make([]regionPool, lat.NumRegions())
	for r := range a.pools {
		a.pools[r].cursor.Store(int64(a.fresh(trace.Region(r), start)))
	}
}

// fresh returns the first index at or after from labelled r, or max.
func (a *nodeAllocator) fresh(r trace.Region, from int) int {
	for from < a.max && a.lat.RegionOf(from) != r {
		from++
	}
	return from
}

// pool returns region r's pool; nil when the hint is unset or r is no region
// label (wire hints arrive unchecked).
func (a *nodeAllocator) pool(r trace.Region, set bool) *regionPool {
	if !set || r < 0 || int(r) >= len(a.pools) {
		return nil
	}
	return &a.pools[r]
}

// claim wins a free node of p for the caller: its most recent release, else
// its lowest never-allocated node. False means p has no free node left.
func (a *nodeAllocator) claim(p *regionPool) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		var idx int
		if n := len(p.free); n > 0 {
			idx = p.free[n-1].idx
			p.free = p.free[:n-1]
			if n > 1 {
				p.top.Store(p.free[n-2].stamp)
			} else {
				p.top.Store(0)
			}
		} else if idx = int(p.cursor.Load()); idx < a.max {
			p.cursor.Store(int64(a.fresh(a.lat.RegionOf(idx), idx+1)))
		} else {
			return 0, false
		}
		if a.taken.claim(idx) {
			return idx, true
		}
	}
}

// acquire hands out the most recently released free node, else the lowest
// never-allocated one.
func (a *nodeAllocator) acquire() (int, bool) {
	for {
		var pick *regionPool
		stamp, cursor := uint64(0), int64(a.max)
		for r := range a.pools {
			p := &a.pools[r]
			if s, c := p.top.Load(), p.cursor.Load(); s > stamp || s == stamp && c < cursor {
				pick, stamp, cursor = p, s, c
			}
		}
		if pick == nil {
			return 0, false
		}
		if idx, ok := a.claim(pick); ok {
			return idx, true
		}
		// Another path emptied the pool after the scan; rescan.
	}
}

// acquireIn prefers a node of the hinted region, falling back to the default
// placement when the hint is unset, names no region, or the region has no
// free node left.
func (a *nodeAllocator) acquireIn(hint RegionHint) (int, bool) {
	if p := a.pool(hint.Region()); p != nil {
		if idx, ok := a.claim(p); ok {
			return idx, true
		}
	}
	return a.acquire()
}

// acquireInStrict hands out a node of exactly the given region, failing
// without any cross-region fallback. Migrations use it: the handoff's
// destination LSC is fixed by the request, and a fallback node in another
// region would silently hand the viewer to a different shard than the one
// re-admitting it.
func (a *nodeAllocator) acquireInStrict(r trace.Region) (int, bool) {
	if p := a.pool(r, true); p != nil {
		return a.claim(p)
	}
	return 0, false
}

// takenCount reports how many indices are currently allocated (tests and
// leak audits; assumes a quiescent allocator).
func (a *nodeAllocator) takenCount() int {
	n := 0
	for i := range a.taken {
		n += bits.OnesCount64(a.taken[i].Load())
	}
	return n
}

// release returns an allocated node to its region's pool. Only the release
// that flips the node back to free lists it, so releasing a free node twice
// lists it once.
func (a *nodeAllocator) release(idx int) {
	if !a.taken.release(idx) {
		return
	}
	p := &a.pools[a.lat.RegionOf(idx)]
	p.mu.Lock()
	stamp := a.clock.Add(1)
	p.free = append(p.free, releasedNode{idx: idx, stamp: stamp})
	p.top.Store(stamp)
	p.mu.Unlock()
}

// newController builds the control plane from the Config NewController's
// options assembled.
func newController(cfg Config) (*Controller, error) {
	if cfg.Producers == nil {
		return nil, fmt.Errorf("session: producers required")
	}
	if cfg.Latency == nil {
		return nil, fmt.Errorf("session: latency matrix required")
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = defaultEventBuffer
	}
	h, err := layering.NewHierarchy(cfg.CDN.Delta, cfg.Buff, cfg.DMax, cfg.Kappa)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	c := &Controller{
		cfg:     cfg,
		cdn:     cdn.New(cfg.CDN),
		lscs:    make(map[trace.Region]*LSC),
		gscNode: 0,
		bus:     newEventBus(cfg.Latency.NumRegions(), cfg.EventBuffer),
	}
	c.routes.init()
	// CDN high-water events fire every 5% of a bounded egress budget, or
	// every 500 Mbps of an unbounded one.
	if cfg.CDN.OutboundCapacityMbps > 0 {
		c.hwStep = cfg.CDN.OutboundCapacityMbps / 20
	} else {
		c.hwStep = 500
	}
	// Place one LSC at the first node of each region. Node indices
	// 1..NumRegions are reserved; viewers start after them.
	if 1+cfg.Latency.NumRegions() > cfg.Latency.Nodes() {
		return nil, fmt.Errorf("session: latency matrix too small for %d regions", cfg.Latency.NumRegions())
	}
	c.nodes.init(cfg.Latency, 1+cfg.Latency.NumRegions())
	c.tel = telemetry.New(cfg.Latency.NumRegions(), 0)
	c.tel.SetOccupancyFunc(c.regionOccupancy)
	if cfg.SlowOpThreshold != 0 {
		c.tel.SetSlowOpThreshold(max(cfg.SlowOpThreshold, 0))
	}
	if cfg.Telemetry {
		c.tel.Enable()
	}
	c.params = overlay.Params{Hierarchy: h, Proc: cfg.Proc, CutoffDF: cfg.CutoffDF, LogDrops: true,
		// The overlay carves its CDN reserve time out behind the same
		// single-atomic-load gate the rest of the telemetry hooks use.
		TimeReserve: c.tel.EnabledFlag()}
	for r := 0; r < cfg.Latency.NumRegions(); r++ {
		region := trace.Region(r)
		lsc := newLSC(region, 1+r, &c.cfg, c.bus)
		lsc.scale = &c.delayScale
		lsc.tel = c.tel
		if _, err := lsc.newShard(c.cdn, c.params); err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
		c.lscs[region] = lsc
	}
	return c, nil
}

// Subscribe attaches an observer to the control-plane event stream: every
// join, rejection, departure, view change, adaptation drop, and CDN
// high-water mark, in per-region order. Events flow through per-shard ring
// buffers and a fan-out goroutine, so subscribing never serializes the
// sharded hot path; a consumer that falls behind its channel buffer loses
// events (counted in Subscription.Dropped) rather than slowing admissions.
// Close the subscription when done.
func (c *Controller) Subscribe() *Subscription { return c.bus.subscribe() }

// Close shuts down the event stream: the fan-out goroutine exits and every
// subscriber channel is closed. The controller itself remains usable for
// joins and departures; further Subscribe calls return closed
// subscriptions. Safe to call more than once.
func (c *Controller) Close() { c.bus.close() }

// CDN exposes the shared distribution substrate.
func (c *Controller) CDN() *cdn.CDN { return c.cdn }

// Latency exposes the propagation-delay substrate the controller places
// viewers on.
func (c *Controller) Latency() *trace.LatencyMatrix { return c.cfg.Latency }

// Telemetry exposes the wall-clock observability layer: enable it, set
// the slow-op threshold, and capture snapshots on demand. The collector
// exists for the controller's whole lifetime.
func (c *Controller) Telemetry() *telemetry.Collector { return c.tel }

// regionOccupancy is the telemetry occupancy probe: the viewer records
// (admitted or rejected) each region shard holds, read under the shard lock
// at snapshot time (never on the hot path). A join in flight between prepare
// and admission is not counted until its shard registers it.
func (c *Controller) regionOccupancy() []int {
	out := make([]int, c.cfg.Latency.NumRegions())
	for r, lsc := range c.lscs {
		out[int(r)] = lsc.viewerCount()
	}
	return out
}

// LSCs returns the shard controllers, keyed by region. The map is immutable
// after construction.
func (c *Controller) LSCs() map[trace.Region]*LSC { return c.lscs }

// lscFor implements the geo-location step: the viewer is handled by the LSC
// of its region.
func (c *Controller) lscFor(nodeIdx int) *LSC {
	return c.lscs[c.cfg.Latency.RegionOf(nodeIdx)]
}

// delay is shorthand for the one-way propagation delay between matrix nodes,
// scaled by the injected delay-shift factor when one is active.
func (c *Controller) delay(a, b int) time.Duration {
	d := c.cfg.Latency.Delay(a, b)
	if bits := c.delayScale.Load(); bits != 0 {
		if s := math.Float64frombits(bits); s != 1 {
			d = time.Duration(float64(d) * s)
		}
	}
	return d
}

// claimID reserves a viewer ID in the routing table, failing on duplicates.
func (c *Controller) claimID(id model.ViewerID) error {
	return c.routes.claim(id)
}

// bindRoute points a claimed viewer ID at its owning shard.
func (c *Controller) bindRoute(id model.ViewerID, lsc *LSC) {
	c.routes.bind(id, lsc)
}

// dropRoute removes a viewer from the routing table.
func (c *Controller) dropRoute(id model.ViewerID) {
	c.routes.drop(id)
}

// lookupRoute returns the shard owning a viewer; ErrUnknownViewer when the
// ID is unknown or mid-join, ErrMigrating during a cross-region handoff.
func (c *Controller) lookupRoute(id model.ViewerID) (*LSC, error) {
	return c.routes.lookup(id)
}

// takeRoute atomically looks up a viewer's route and downgrades it to a
// claim, so exactly one departure wins a race and the ID stays reserved —
// blocking a re-join from colliding with the shard's viewer record — until the
// caller finishes the departure and drops the route. Viewers owned by a
// live migration report ErrMigrating.
func (c *Controller) takeRoute(id model.ViewerID) (*LSC, error) {
	return c.routes.take(id)
}

// noteCDNPeak emits an EventCDNHighWater through the given shard's ring when
// the CDN egress high-water mark has risen by at least one reporting step
// since the last report. With no subscriber it is a single atomic load.
func (c *Controller) noteCDNPeak(l *LSC) {
	if !c.bus.active.Load() {
		return
	}
	peak := c.cdn.PeakMbps()
	for {
		lastBits := c.hwReported.Load()
		if peak < math.Float64frombits(lastBits)+c.hwStep {
			return
		}
		if c.hwReported.CompareAndSwap(lastBits, math.Float64bits(peak)) {
			l.emit(Event{Kind: EventCDNHighWater, PeakMbps: peak})
			return
		}
	}
}
