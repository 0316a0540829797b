// Package cdn models the commercial CDN substrate 4D TeleCast uses as its
// first-layer distribution server (§III-A). The paper treats the CDN as a
// black box: producers upload 3D frames to the distribution storage, core
// servers replicate to edge servers, and the session is granted a bounded
// outbound capacity C^cdn_obw. Every frame delivered through the CDN reaches
// a direct child with constant end-to-end delay Δ (§V-B1).
package cdn

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"telecast/internal/model"
)

// Config bounds the CDN resources granted to one 3DTI session.
type Config struct {
	// OutboundCapacityMbps is C^cdn_obw, the total egress the session may
	// draw from the CDN. Zero means unbounded (used to measure the CDN
	// bandwidth required for ρ=1, Fig 13a).
	OutboundCapacityMbps float64
	// InboundCapacityMbps is C^cdn_ibw for producer uploads. The paper
	// assumes this bound is always met because the producer count is
	// small; we still account for it.
	InboundCapacityMbps float64
	// Delta is Δ: the constant delay from capture at a producer to
	// delivery at any direct CDN child (60 s in the evaluation).
	Delta time.Duration
	// EdgeServers is the number of edge servers, used only for placement
	// bookkeeping and stats.
	EdgeServers int
}

// DefaultConfig mirrors the evaluation setup: Δ = 60 s, 6000 Mbps egress.
func DefaultConfig() Config {
	return Config{
		OutboundCapacityMbps: 6000,
		InboundCapacityMbps:  0, // unbounded
		Delta:                60 * time.Second,
		EdgeServers:          16,
	}
}

// unitsPerMbps is the fixed-point scale of the capacity counters: bandwidth
// is accounted in integer nano-Mbps so that the hot capacity check is a
// single lock-free compare-and-swap with no float drift.
const unitsPerMbps = 1e9

// toUnits converts Mbps to counter units, saturating far below the int64
// range so arithmetic on absurd inputs cannot overflow.
func toUnits(mbps float64) int64 {
	u := math.Round(mbps * unitsPerMbps)
	if u > math.MaxInt64/4 {
		return math.MaxInt64 / 4
	}
	return int64(u)
}

// toMbps converts counter units back to Mbps.
func toMbps(units int64) float64 { return float64(units) / unitsPerMbps }

// CDN tracks capacity usage per stream. It is the only resource shared by
// every LSC shard of a session, so all counters are designed for concurrent
// use: the egress total, peak, and inbound total are atomics, and every
// allocation holds its egress against the shared total with one CAS before
// attributing it to a stream, so the Δ-bounded egress is never
// oversubscribed even transiently.
type CDN struct {
	cfg Config
	// capOut/capIn are the configured bounds in counter units (0 =
	// unbounded). capOut is atomic because fault injection rescales it at
	// runtime (CDNCollapse) while admissions keep reading it lock-free.
	capOut atomic.Int64
	capIn  int64

	// outTotal is the egress currently reserved or allocated; peakOut is
	// its high-water mark, the quantity Fig 13(a) reports.
	outTotal atomic.Int64
	peakOut  atomic.Int64
	inTotal  atomic.Int64

	// mu guards the per-stream maps only; the capacity decision never
	// takes it.
	mu sync.Mutex
	// outPerStream is the egress committed to each stream.
	outPerStream map[model.StreamID]int64
	// uploaded counts producer frames stored, per stream.
	uploaded map[model.StreamID]int64
}

// New constructs a CDN with the given resource bounds.
func New(cfg Config) *CDN {
	c := &CDN{
		cfg:          cfg,
		capIn:        toUnits(cfg.InboundCapacityMbps),
		outPerStream: make(map[model.StreamID]int64),
		uploaded:     make(map[model.StreamID]int64),
	}
	c.capOut.Store(toUnits(cfg.OutboundCapacityMbps))
	return c
}

// OutboundCapacityMbps returns the current (possibly rescaled) egress bound;
// 0 means unbounded.
func (c *CDN) OutboundCapacityMbps() float64 { return toMbps(c.capOut.Load()) }

// SetOutboundCapacityMbps rescales the egress bound at runtime (fault
// injection: CDN collapse and restore). Existing allocations are untouched —
// shrinking below current usage only starves new reservations until usage
// drains under the new cap. 0 makes the CDN unbounded.
func (c *CDN) SetOutboundCapacityMbps(mbps float64) { c.capOut.Store(toUnits(mbps)) }

// Delta returns Δ, the producer-to-first-child constant delay.
func (c *CDN) Delta() time.Duration { return c.cfg.Delta }

// Bounded reports whether the session's CDN egress is capacity-limited.
func (c *CDN) Bounded() bool { return c.capOut.Load() > 0 }

// RemainingMbps returns the unallocated egress capacity. Unbounded CDNs
// report +Inf-like behaviour via a very large number; callers should check
// Bounded for exact semantics.
func (c *CDN) RemainingMbps() float64 {
	if !c.Bounded() {
		return 1e18
	}
	return toMbps(c.capOut.Load() - c.outTotal.Load())
}

// PeakMbps returns the egress high-water mark without taking any lock, so
// hot paths can watch it cheaply (Snapshot copies the per-stream map too).
func (c *CDN) PeakMbps() float64 { return toMbps(c.peakOut.Load()) }

// CanServe reports whether the CDN has bw Mbps of spare egress. It is a
// point-in-time hint: under concurrent admission only an Allocate actually
// holds the capacity.
func (c *CDN) CanServe(bwMbps float64) bool {
	cap := c.capOut.Load()
	return cap <= 0 || c.outTotal.Load()+toUnits(bwMbps) <= cap
}

// reserveUnits is the Δ-bounded egress check-and-hold: one CAS against the
// shared total (retried on contention) plus the peak update on success, so
// parallel admissions from different LSC shards can never collectively
// exceed the bound.
func (c *CDN) reserveUnits(units int64) bool {
	for {
		cur := c.outTotal.Load()
		if cap := c.capOut.Load(); cap > 0 && cur+units > cap {
			return false
		}
		if c.outTotal.CompareAndSwap(cur, cur+units) {
			c.raisePeak()
			return true
		}
	}
}

// raisePeak lifts the egress high-water mark to the current total.
func (c *CDN) raisePeak() {
	total := c.outTotal.Load()
	for {
		peak := c.peakOut.Load()
		if total <= peak || c.peakOut.CompareAndSwap(peak, total) {
			return
		}
	}
}

// subOut decrements the egress total, clamping at zero so an accounting
// error surfaced elsewhere cannot drive the counter negative.
func (c *CDN) subOut(units int64) {
	for v := c.outTotal.Add(-units); v < 0; v = c.outTotal.Load() {
		if c.outTotal.CompareAndSwap(v, 0) {
			return
		}
	}
}

// Allocate reserves bw Mbps of egress for one direct child of the given
// stream: the shared total is held first, then attributed to the stream.
// It fails with ErrCapacity when the session's CDN budget is exhausted.
func (c *CDN) Allocate(id model.StreamID, bwMbps float64) error {
	if bwMbps < 0 {
		return fmt.Errorf("cdn allocate %v: negative bandwidth %v", id, bwMbps)
	}
	units := toUnits(bwMbps)
	if !c.reserveUnits(units) {
		return fmt.Errorf("cdn allocate %v: %w", id, ErrCapacity)
	}
	c.mu.Lock()
	c.outPerStream[id] += units
	c.mu.Unlock()
	return nil
}

// Release returns bw Mbps of egress previously allocated for the stream.
// Releasing more than allocated clamps to zero and reports an error so that
// accounting bugs surface in tests rather than corrupting totals.
func (c *CDN) Release(id model.StreamID, bwMbps float64) error {
	units := toUnits(bwMbps)
	c.mu.Lock()
	cur := c.outPerStream[id]
	if units > cur {
		delete(c.outPerStream, id)
		c.mu.Unlock()
		c.subOut(cur)
		return fmt.Errorf("cdn release %v: released %v Mbps with only %v allocated", id, bwMbps, toMbps(cur))
	}
	if cur-units == 0 {
		delete(c.outPerStream, id)
	} else {
		c.outPerStream[id] = cur - units
	}
	c.mu.Unlock()
	c.subOut(units)
	return nil
}

// RecordUpload accounts a producer frame entering the distribution storage.
func (c *CDN) RecordUpload(id model.StreamID, bwMbps float64) error {
	units := toUnits(bwMbps)
	for {
		cur := c.inTotal.Load()
		if c.capIn > 0 && cur+units > c.capIn {
			return fmt.Errorf("cdn upload %v: %w", id, ErrCapacity)
		}
		if c.inTotal.CompareAndSwap(cur, cur+units) {
			break
		}
	}
	c.mu.Lock()
	c.uploaded[id]++
	c.mu.Unlock()
	return nil
}

// Usage is a point-in-time snapshot of CDN accounting.
type Usage struct {
	OutTotalMbps  float64
	PeakOutMbps   float64
	InTotalMbps   float64
	PerStreamMbps map[model.StreamID]float64
}

// Snapshot returns a copy of the current usage counters.
func (c *CDN) Snapshot() Usage {
	c.mu.Lock()
	per := make(map[model.StreamID]float64, len(c.outPerStream))
	for k, v := range c.outPerStream {
		per[k] = toMbps(v)
	}
	c.mu.Unlock()
	return Usage{
		OutTotalMbps:  toMbps(c.outTotal.Load()),
		PeakOutMbps:   toMbps(c.peakOut.Load()),
		InTotalMbps:   toMbps(c.inTotal.Load()),
		PerStreamMbps: per,
	}
}

// UsageTotals returns the scalar usage counters without the per-stream map:
// three atomic loads, no lock, no allocation. The periodic samplers read it
// where Snapshot's map copy would dominate the sample cost.
func (c *CDN) UsageTotals() Usage {
	return Usage{
		OutTotalMbps: toMbps(c.outTotal.Load()),
		PeakOutMbps:  toMbps(c.peakOut.Load()),
		InTotalMbps:  toMbps(c.inTotal.Load()),
	}
}

// Streams returns the stream IDs with live allocations, sorted.
func (c *CDN) Streams() []model.StreamID {
	c.mu.Lock()
	ids := make([]model.StreamID, 0, len(c.outPerStream))
	for id := range c.outPerStream {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}
