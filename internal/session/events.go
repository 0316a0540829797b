package session

import (
	"sync"
	"sync/atomic"

	"telecast/internal/model"
	"telecast/internal/trace"
)

// This file implements the control plane's observation stream. The paper's
// GSC is a monitoring component (§III) and the §VI adaptation machinery is
// event-driven — joins, departures, and view changes are the stimuli. The
// stream makes those stimuli programmable: Subscribe returns a channel of
// typed events without giving observers any way to serialize the sharded
// hot path. Each LSC publishes into its own fixed-capacity ring under a
// shard-local mutex; a single pump goroutine drains the rings and fans the
// events out to subscriber channels. When nobody subscribes, publishing is
// one atomic load. The rings are allocated by the first Subscribe, so a
// controller nobody observes never builds them.

// EventKind discriminates control-plane events.
type EventKind uint8

const (
	// EventJoinAccepted: a viewer passed admission control.
	EventJoinAccepted EventKind = iota + 1
	// EventJoinRejected: admission control refused a join or a view
	// change re-admission; Reason carries the cause.
	EventJoinRejected
	// EventDeparted: a viewer left and its victims were recovered.
	EventDeparted
	// EventViewChanged: a viewer was re-admitted with a new view.
	EventViewChanged
	// EventStreamDropped: the overlay dropped one stream subscription
	// (delay-layer adaptation past d_max, or a victim recovery that found
	// neither a peer slot nor CDN egress); Stream and Reason are set.
	EventStreamDropped
	// EventCDNHighWater: the CDN egress high-water mark rose by at least
	// one reporting step; PeakMbps carries the new peak.
	EventCDNHighWater
	// EventMigratedOut: a cross-region handoff detached the viewer from
	// this (source) shard; From/To name the handoff and Cause its trigger.
	// Published on the source ring, sequenced at the detach.
	EventMigratedOut
	// EventMigratedIn: the destination shard re-admitted a migrated
	// viewer; Streams counts its served subscriptions. Published on the
	// destination ring, sequenced at the re-admission.
	EventMigratedIn
	// EventMigrationRestored: the destination refused the migrant and the
	// viewer was re-admitted on its source shard; Reason carries the
	// destination's rejection cause. Published on the source ring.
	EventMigrationRestored
)

// String names the kind for logs.
func (k EventKind) String() string {
	switch k {
	case EventJoinAccepted:
		return "join-accepted"
	case EventJoinRejected:
		return "join-rejected"
	case EventDeparted:
		return "departed"
	case EventViewChanged:
		return "view-changed"
	case EventStreamDropped:
		return "stream-dropped"
	case EventCDNHighWater:
		return "cdn-high-water"
	case EventMigratedOut:
		return "migrated-out"
	case EventMigratedIn:
		return "migrated-in"
	case EventMigrationRestored:
		return "migration-restored"
	default:
		return "event(?)"
	}
}

// Event is one control-plane observation. Events of one region are ordered
// exactly as the shard processed them (Seq is strictly increasing per
// region); events of different regions are interleaved arbitrarily, the
// price of never synchronizing shards against each other.
type Event struct {
	Kind   EventKind
	Region trace.Region
	// Seq is the per-region publication sequence number, starting at 1.
	Seq uint64
	// Viewer is the subject (empty for CDN events).
	Viewer model.ViewerID
	// Streams is the accepted stream count of a join or view change.
	Streams int
	// Stream is the dropped subscription of an EventStreamDropped.
	Stream model.StreamID
	// Reason is the admission-failure or drop cause.
	Reason RejectReason
	// PeakMbps is the CDN egress high-water mark of an EventCDNHighWater.
	PeakMbps float64
	// From and To are the source and destination regions of a migration
	// event (EventMigratedOut/In, EventMigrationRestored).
	From, To trace.Region
	// Cause labels a migration's trigger (MigrateRequest.Reason).
	Cause string
}

// eventRing is one shard's fixed-capacity publication buffer. Its mutex is
// shard-local, so publications from different regions never contend; when
// the ring is full the oldest event is overwritten and counted. buf is nil
// until the first Subscribe opens the ring, and nothing publishes before
// that: publish runs only once the bus is active.
type eventRing struct {
	region trace.Region

	mu      sync.Mutex
	buf     []Event
	start   int
	n       int
	seq     uint64
	dropped uint64
}

func (r *eventRing) publish(ev Event) {
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	ev.Region = r.region
	if r.n == len(r.buf) {
		r.start = (r.start + 1) % len(r.buf)
		r.n--
		r.dropped++
	}
	r.buf[(r.start+r.n)%len(r.buf)] = ev
	r.n++
	r.mu.Unlock()
}

// open allocates the ring's buffer on first use and discards whatever it
// holds: a fresh subscriber observes the stream from now on.
func (r *eventRing) open(capacity int) {
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]Event, capacity)
	}
	r.start, r.n, r.dropped = 0, 0, 0
	r.mu.Unlock()
}

// drain appends the buffered events to dst in publication order and clears
// the ring, also returning how many events overflowed (were overwritten)
// since the previous drain so the pump can credit subscriber drop counters.
func (r *eventRing) drain(dst []Event) ([]Event, uint64) {
	r.mu.Lock()
	for i := 0; i < r.n; i++ {
		dst = append(dst, r.buf[(r.start+i)%len(r.buf)])
	}
	r.start, r.n = 0, 0
	overflowed := r.dropped
	r.dropped = 0
	r.mu.Unlock()
	return dst, overflowed
}

// Subscription is one observer of the control plane. Read Events until it
// is closed; call Close when done. The channel is buffered; if the consumer
// falls behind the buffer, events addressed to this subscription are counted
// in Dropped rather than blocking the pump.
type Subscription struct {
	bus      *eventBus
	ch       chan Event
	dropped  atomic.Uint64
	closed   bool // guarded by bus.mu
	chClosed bool // guarded by bus.mu
}

// Events is the subscription's delivery channel. It is closed after Close
// (or after the controller shuts the stream down).
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped counts events this subscription missed — because its channel was
// full when the pump tried to deliver them, or because a shard's ring
// overflowed before the pump could drain it.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close detaches the subscription. The Events channel is closed shortly
// after (by the pump, or immediately when no pump is running).
func (s *Subscription) Close() { s.bus.unsubscribe(s) }

// Flush blocks until every event published before the call has been
// delivered to the subscriber channels (or counted as dropped). Call it
// after the last control-plane operation and before Close when the consumer
// needs a complete tally — otherwise closing can race the pump's final
// drain and discard ring events that were never fanned out.
func (s *Subscription) Flush() { s.bus.flush() }

// eventBus owns the rings, the subscriber set, and the pump goroutine.
type eventBus struct {
	rings []*eventRing
	kick  chan struct{}
	// barrier carries flush requests: the pump runs one drain-and-deliver
	// cycle and closes the ack channel it received.
	barrier chan chan struct{}
	active  atomic.Bool // true while at least one live subscriber exists

	mu      sync.Mutex
	subs    []*Subscription
	running bool
	closed  bool
	stop    chan struct{}
	// exited is closed by the pump generation on its way out, so a flush
	// that raced the pump's zero-subscriber exit unblocks instead of
	// waiting on a barrier nobody will serve.
	exited chan struct{}
	wg     sync.WaitGroup
	buffer int
}

func newEventBus(regions, buffer int) *eventBus {
	b := &eventBus{
		rings:   make([]*eventRing, regions),
		kick:    make(chan struct{}, 1),
		barrier: make(chan chan struct{}),
		buffer:  buffer,
	}
	for r := range b.rings {
		b.rings[r] = &eventRing{region: trace.Region(r)}
	}
	return b
}

// publish appends an event to a region's ring and nudges the pump. With no
// live subscriber this is a single atomic load.
func (b *eventBus) publish(region trace.Region, ev Event) {
	if !b.active.Load() {
		return
	}
	b.rings[int(region)].publish(ev)
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

func (b *eventBus) subscribe() *Subscription {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := &Subscription{bus: b, ch: make(chan Event, b.buffer)}
	if b.closed {
		close(s.ch)
		s.closed, s.chClosed = true, true
		return s
	}
	b.subs = append(b.subs, s)
	if !b.running {
		// Events published while nobody listened are stale; a fresh
		// subscriber observes the stream from now on. Opening allocates
		// the rings before active is stored, so no publisher ever sees
		// an active bus with an unallocated ring.
		for _, r := range b.rings {
			r.open(b.buffer)
		}
		b.stop = make(chan struct{})
		b.exited = make(chan struct{})
		b.running = true
		b.active.Store(true)
		b.wg.Add(1)
		go b.pump(b.stop, b.exited)
	}
	return s
}

func (b *eventBus) unsubscribe(s *Subscription) {
	b.mu.Lock()
	if s.closed {
		b.mu.Unlock()
		return
	}
	s.closed = true
	live := 0
	for _, x := range b.subs {
		if !x.closed {
			live++
		}
	}
	if live == 0 {
		b.active.Store(false)
	}
	if !b.running && !s.chClosed {
		// No pump to finish the close; do it here.
		close(s.ch)
		s.chClosed = true
	}
	b.mu.Unlock()
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// close shuts the stream down: the pump exits and every subscriber channel
// is closed. Safe to call more than once.
func (b *eventBus) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.active.Store(false)
	if b.running {
		stop := b.stop
		b.mu.Unlock()
		close(stop)
		b.wg.Wait()
		return
	}
	for _, s := range b.subs {
		if !s.chClosed {
			close(s.ch)
			s.chClosed = true
		}
	}
	b.subs = nil
	b.mu.Unlock()
}

// flush runs one synchronous drain-and-deliver cycle through the pump, so
// events published before the call are in subscriber channels (or counted
// dropped) when it returns. Without a running pump there is nothing to
// race: rings were drained on shutdown or will be on the next subscribe.
func (b *eventBus) flush() {
	b.mu.Lock()
	if !b.running || b.closed {
		b.mu.Unlock()
		return
	}
	stop, exited := b.stop, b.exited
	b.mu.Unlock()
	ack := make(chan struct{})
	select {
	case b.barrier <- ack:
		<-ack
	case <-stop:
		// A concurrent Close wins: shutdownLocked delivers everything.
	case <-exited:
		// The pump quit with zero live subscribers; nothing left to wait
		// for — undelivered ring events have no one to go to.
	}
}

// pump is the single fan-out goroutine: it drains every ring in region
// order and delivers to each live subscriber with a non-blocking send, so a
// stalled consumer loses its own events instead of stalling everyone else.
func (b *eventBus) pump(stop, exited chan struct{}) {
	defer b.wg.Done()
	defer close(exited)
	var batch []Event
	for {
		var ack chan struct{}
		select {
		case <-stop:
			b.shutdownLocked()
			return
		case <-b.kick:
		case ack = <-b.barrier:
		}
		batch = batch[:0]
		var overflowed uint64
		for _, r := range b.rings {
			var n uint64
			batch, n = r.drain(batch)
			overflowed += n
		}
		b.mu.Lock()
		live := b.subs[:0]
		for _, s := range b.subs {
			if s.closed {
				if !s.chClosed {
					close(s.ch)
					s.chClosed = true
				}
				continue
			}
			live = append(live, s)
		}
		b.subs = live
		if len(live) == 0 {
			b.running = false
			b.active.Store(false)
			b.mu.Unlock()
			if ack != nil {
				close(ack)
			}
			return
		}
		b.mu.Unlock()
		for _, s := range live {
			if overflowed > 0 {
				s.dropped.Add(overflowed)
			}
		}
		for _, ev := range batch {
			for _, s := range live {
				select {
				case s.ch <- ev:
				default:
					s.dropped.Add(1)
				}
			}
		}
		if ack != nil {
			close(ack)
		}
	}
}

// shutdownLocked finishes a bus close from inside the pump: drain what is
// left, deliver it, and close every channel.
func (b *eventBus) shutdownLocked() {
	var batch []Event
	var overflowed uint64
	for _, r := range b.rings {
		var n uint64
		batch, n = r.drain(batch)
		overflowed += n
	}
	b.mu.Lock()
	subs := b.subs
	b.subs = nil
	// running stays true until the channels are closed below, so a
	// concurrent unsubscribe never closes a channel this dispatch still
	// sends on.
	var live []*Subscription
	for _, s := range subs {
		if !s.closed {
			live = append(live, s)
		}
	}
	b.mu.Unlock()
	for _, s := range live {
		if overflowed > 0 {
			s.dropped.Add(overflowed)
		}
	}
	for _, ev := range batch {
		for _, s := range live {
			select {
			case s.ch <- ev:
			default:
				s.dropped.Add(1)
			}
		}
	}
	b.mu.Lock()
	b.running = false
	for _, s := range subs {
		if !s.chClosed {
			close(s.ch)
			s.chClosed = true
		}
	}
	b.mu.Unlock()
}
