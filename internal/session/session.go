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
	// of the Subscribe stream; 0 means 4096.
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
// recycles the slots of departed ones. Alongside the default order (the most
// recently released free node, then a sequential cursor) it can satisfy a
// region preference: per-region pools list the free nodes of every region,
// and the path that claims a node unlists it from the other path's list. So
// every list holds each node at most once, and serial use never leaves a
// taken node listed: the allocator's memory is fixed by the matrix size, not
// by how many nodes it has recycled. (A claim racing a release can leave a
// taken node listed, still at most once: its claim fails when it is popped,
// and its next release moves it to the front.)
//
// It is built for the striped batch-prepare path: the taken bitmap is atomic
// and its CAS is the single allocation gate, each region's pool sits behind
// its own lock, and the sequential cursor is a CAS loop — so W concurrent
// prepare workers only contend when they chase the same region's pool or
// drain the shared free list, never on one global mutex. No path holds two
// list locks at once: a claimant unlists its node from the other list after
// releasing its own, and a path that pops an entry another path has claimed
// in between discards it, as the taken bitmap says it must.
type nodeAllocator struct {
	// mu guards free, the released nodes the default path serves before the
	// sequential cursor, most recently released first.
	mu   sync.Mutex
	free nodeList
	// next is the sequential cursor over never-allocated indices, advanced
	// by CAS; max bounds it.
	next atomic.Int64
	max  int
	// taken is the allocation gate: an index is owned by exactly the path
	// that wins its CompareAndSwap(false, true), whichever list it was
	// popped from.
	taken []atomic.Bool
	// regionOf labels node indices; nil disables region-aware allocation.
	regionOf func(int) trace.Region
	// pools holds each region's free-node indexes behind a per-region lock.
	pools map[trace.Region]*regionPool
	// poolLinks is the link table the region pools share (their node sets
	// are disjoint). Like the default list's, it is allocated by the first
	// release that needs it, so starting a controller costs no O(matrix)
	// table a viewer may never return a node to.
	poolLinksOnce sync.Once
	poolLinks     []nodeLink
}

// regionPool indexes one region's free nodes: seq holds the never-allocated
// indices in ascending order, free the released ones most recent first.
type regionPool struct {
	mu   sync.Mutex
	seq  []int
	free nodeList
}

// nodeList is a LIFO of node indices threaded through a per-node link table:
// pushing a listed node moves it to the front instead of adding a second
// entry, and any node unlinks in O(1). Lists over disjoint node sets (the
// region pools) share one table. Links hold index+1, so a zeroed table is
// one in which no node is listed and needs no initializing pass. An empty
// list may have no table yet; the first push needs one.
type nodeList struct {
	head  int32 // the front node's index+1; 0 when empty
	links []nodeLink
}

// nodeLink is one node's place in its list: the neighbours toward the front
// and the back, as index+1, 0 past either end. A node is listed when it is
// its list's head or has a prev.
type nodeLink struct{ prev, next int32 }

// push puts idx at the front, moving it there if it is already listed.
func (l *nodeList) push(idx int) {
	l.remove(idx)
	l.links[idx] = nodeLink{next: l.head}
	if l.head != 0 {
		l.links[l.head-1].prev = int32(idx) + 1
	}
	l.head = int32(idx) + 1
}

// pop unlinks and returns the front node.
func (l *nodeList) pop() (int, bool) {
	if l.head == 0 {
		return 0, false
	}
	idx := int(l.head - 1)
	l.remove(idx)
	return idx, true
}

// remove unlinks idx; a no-op when it is not listed.
func (l *nodeList) remove(idx int) {
	if l.head == 0 {
		return
	}
	n := l.links[idx]
	if n.prev == 0 && l.head != int32(idx)+1 {
		return
	}
	if n.prev == 0 {
		l.head = n.next
	} else {
		l.links[n.prev-1].next = n.next
	}
	if n.next != 0 {
		l.links[n.next-1].prev = n.prev
	}
	l.links[idx] = nodeLink{}
}

// init sets the allocatable range [start, max) and sizes the taken bitmap.
// Must run before initRegions and before the first acquire.
func (a *nodeAllocator) init(start, max int) {
	a.next.Store(int64(start))
	a.max = max
	a.taken = make([]atomic.Bool, max)
}

// initRegions indexes the allocatable node range by region. Must run after
// init and before the first acquire.
func (a *nodeAllocator) initRegions(lat *trace.LatencyMatrix) {
	a.regionOf = lat.RegionOf
	a.pools = make(map[trace.Region]*regionPool, lat.NumRegions())
	for idx := int(a.next.Load()); idx < a.max; idx++ {
		r := lat.RegionOf(idx)
		p := a.pools[r]
		if p == nil {
			p = &regionPool{}
			a.pools[r] = p
		}
		p.seq = append(p.seq, idx)
	}
}

// claim wins an index for the caller; false means another path owns it and
// the entry the caller popped was stale.
func (a *nodeAllocator) claim(idx int) bool {
	return a.taken[idx].CompareAndSwap(false, true)
}

func (a *nodeAllocator) acquire() (int, bool) {
	a.mu.Lock()
	for idx, ok := a.free.pop(); ok; idx, ok = a.free.pop() {
		if a.claim(idx) {
			a.mu.Unlock()
			a.unlistRegion(idx)
			return idx, true
		}
	}
	a.mu.Unlock()
	for {
		n := a.next.Load()
		if n >= int64(a.max) {
			return 0, false
		}
		if !a.next.CompareAndSwap(n, n+1) {
			continue
		}
		if a.claim(int(n)) {
			return int(n), true
		}
		// The cursor index was consumed through a region pool; advance.
	}
}

// acquireIn prefers a node of the hinted region, falling back to the default
// placement when the hint is unset or the region has no free node left.
func (a *nodeAllocator) acquireIn(hint RegionHint) (int, bool) {
	r, ok := hint.Region()
	if !ok || a.regionOf == nil {
		return a.acquire()
	}
	if idx, ok := a.acquireRegion(r); ok {
		return idx, true
	}
	return a.acquire()
}

// acquireInStrict hands out a node of exactly the given region, failing
// without any cross-region fallback. Migrations use it: the handoff's
// destination LSC is fixed by the request, and a fallback node in another
// region would silently hand the viewer to a different shard than the one
// re-admitting it.
func (a *nodeAllocator) acquireInStrict(r trace.Region) (int, bool) {
	if a.regionOf == nil {
		return a.acquire()
	}
	return a.acquireRegion(r)
}

// acquireRegion takes a free node of the region — released ones first, then
// never-allocated ones. Only the region's own lock is held while its lists
// are popped; the taken CAS arbitrates against every other acquisition
// path, and a released node the region wins is then unlisted from the
// default list.
func (a *nodeAllocator) acquireRegion(r trace.Region) (int, bool) {
	p := a.pools[r]
	if p == nil {
		return 0, false
	}
	idx, released, ok := p.claim(a)
	if ok && released {
		a.mu.Lock()
		a.free.remove(idx)
		a.mu.Unlock()
	}
	return idx, ok
}

// claim wins a node of the pool for the caller, discarding entries the
// taken bitmap marks as consumed through another path; released reports
// that the node came off the pool's free list.
func (p *regionPool) claim(a *nodeAllocator) (idx int, released, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for idx, ok := p.free.pop(); ok; idx, ok = p.free.pop() {
		if a.claim(idx) {
			return idx, true, true
		}
	}
	for len(p.seq) > 0 {
		idx := p.seq[0]
		p.seq = p.seq[1:]
		if a.claim(idx) {
			return idx, false, true
		}
	}
	return 0, false, false
}

// unlistRegion drops a node the default path claimed from its region pool.
func (a *nodeAllocator) unlistRegion(idx int) {
	if a.regionOf == nil {
		return
	}
	if p := a.pools[a.regionOf(idx)]; p != nil {
		p.mu.Lock()
		p.free.remove(idx)
		p.mu.Unlock()
	}
}

// takenCount reports how many indices are currently allocated (tests and
// leak audits; assumes a quiescent allocator).
func (a *nodeAllocator) takenCount() int {
	n := 0
	for i := range a.taken {
		if a.taken[i].Load() {
			n++
		}
	}
	return n
}

func (a *nodeAllocator) release(idx int) {
	// The order matters: the index must read free before any list holds it
	// again, or a concurrent acquirer could pop the fresh entry and lose the
	// CAS against the stale taken bit.
	a.taken[idx].Store(false)
	a.mu.Lock()
	if a.free.links == nil {
		a.free.links = make([]nodeLink, a.max)
	}
	a.free.push(idx)
	a.mu.Unlock()
	if a.regionOf != nil {
		if p := a.pools[a.regionOf(idx)]; p != nil {
			p.mu.Lock()
			if p.free.links == nil {
				a.poolLinksOnce.Do(func() { a.poolLinks = make([]nodeLink, a.max) })
				p.free.links = a.poolLinks
			}
			p.free.push(idx)
			p.mu.Unlock()
		}
	}
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
	c.nodes.init(1+cfg.Latency.NumRegions(), cfg.Latency.Nodes())
	c.nodes.initRegions(cfg.Latency)
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
		mgr, err := overlay.NewManager(cfg.Producers, c.cdn, lsc.propFunc(), c.params)
		if err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
		lsc.shard = mgr
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
// blocking a re-join from overwriting the shard registry entry — until the
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
