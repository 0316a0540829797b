package session

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/model"
	"telecast/internal/trace"
)

// testController16 builds a 16-region controller sized for n viewers.
func testController16(t *testing.T, viewers int, cdnCapMbps float64) *Controller {
	t.Helper()
	producers, err := model.NewSession(
		model.NewRingSite("A", 8, 2.0, 10),
		model.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	latCfg := trace.DefaultLatencyConfig(viewers+17, 11)
	latCfg.Regions = 16
	lat, err := trace.GenerateLatencyMatrix(latCfg)
	if err != nil {
		t.Fatal(err)
	}
	cdnCfg := cdn.DefaultConfig()
	cdnCfg.OutboundCapacityMbps = cdnCapMbps
	c, err := NewController(producers, lat, WithCDN(cdnCfg))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSubscribeDeliversEveryEventInOrder drives joins, view changes, and
// departures across 16 concurrently-admitting shards and checks that one
// subscriber observes every operation exactly once, with strictly
// increasing per-region sequence numbers and join-before-depart ordering
// per viewer. Run with -race.
func TestSubscribeDeliversEveryEventInOrder(t *testing.T) {
	const n = 320
	c := testController16(t, n, 0)
	sub := c.Subscribe()
	defer sub.Close()

	view0 := model.NewUniformView(c.cfg.Producers, 0)
	view1 := model.NewUniformView(c.cfg.Producers, 1.5)
	reqs := make([]JoinRequest, n)
	for i := range reqs {
		reqs[i] = JoinRequest{ID: vid(i), InboundMbps: 12, OutboundMbps: float64(i % 13), View: view0}
	}
	for _, out := range c.JoinBatch(testCtx, reqs) {
		if out.Err != nil {
			t.Fatalf("join %s: %v", out.ID, out.Err)
		}
	}
	for i := 0; i < n; i += 4 {
		if _, err := c.ChangeView(testCtx, vid(i), view1); err != nil && !errors.Is(err, ErrRejected) {
			t.Fatalf("view change %s: %v", vid(i), err)
		}
	}
	ids := make([]model.ViewerID, n)
	for i := range ids {
		ids[i] = vid(i)
	}
	for _, out := range c.DepartBatch(testCtx, ids) {
		if out.Err != nil {
			t.Fatalf("depart %s: %v", out.ID, out.Err)
		}
	}

	wantOps := n + n/4 + n // joins + view changes + departs
	var joins, changes, departs int
	lastSeq := make(map[trace.Region]uint64)
	joined := make(map[model.ViewerID]bool)
	departed := make(map[model.ViewerID]bool)
	timeout := time.After(10 * time.Second)
	for joins+changes+departs < wantOps {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatalf("stream closed after %d/%d ops", joins+changes+departs, wantOps)
			}
			if ev.Seq <= lastSeq[ev.Region] {
				t.Fatalf("region %d seq went %d -> %d", ev.Region, lastSeq[ev.Region], ev.Seq)
			}
			lastSeq[ev.Region] = ev.Seq
			switch ev.Kind {
			case EventJoinAccepted:
				if joined[ev.Viewer] {
					t.Fatalf("viewer %s joined twice", ev.Viewer)
				}
				joined[ev.Viewer] = true
				joins++
			case EventViewChanged:
				if !joined[ev.Viewer] || departed[ev.Viewer] {
					t.Fatalf("view change for %s out of order", ev.Viewer)
				}
				changes++
			case EventDeparted:
				if !joined[ev.Viewer] {
					t.Fatalf("viewer %s departed before joining", ev.Viewer)
				}
				if departed[ev.Viewer] {
					t.Fatalf("viewer %s departed twice", ev.Viewer)
				}
				departed[ev.Viewer] = true
				departs++
			case EventJoinRejected:
				t.Fatalf("unexpected rejection for %s (%s)", ev.Viewer, ev.Reason)
			}
		case <-timeout:
			t.Fatalf("delivered %d/%d ops (dropped=%d)", joins+changes+departs, wantOps, sub.Dropped())
		}
	}
	if joins != n || changes != n/4 || departs != n {
		t.Fatalf("joins=%d changes=%d departs=%d", joins, changes, departs)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("subscription dropped %d events", sub.Dropped())
	}
}

// TestSubscribeRejectionAndHighWaterEvents pins the remaining event kinds:
// a capacity-starved session publishes JoinRejected with a typed reason and
// CDNHighWater marks as the egress climbs.
func TestSubscribeRejectionAndHighWaterEvents(t *testing.T) {
	c := testController(t, 128, 24) // room for exactly 2 zero-outbound viewers
	sub := c.Subscribe()
	defer sub.Close()
	view := model.NewUniformView(c.cfg.Producers, 0)
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := c.Join(testCtx, vid(i), 12, 0, view); err != nil && !errors.Is(err, ErrRejected) {
			t.Fatal(err)
		}
	}
	var accepted, rejected, highWater int
	timeout := time.After(5 * time.Second)
	for accepted+rejected < n {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatal("stream closed early")
			}
			switch ev.Kind {
			case EventJoinAccepted:
				accepted++
			case EventJoinRejected:
				if ev.Reason == ReasonNone {
					t.Fatalf("rejection of %s carries no reason", ev.Viewer)
				}
				rejected++
			case EventCDNHighWater:
				if ev.PeakMbps <= 0 {
					t.Fatalf("high-water event with peak %v", ev.PeakMbps)
				}
				highWater++
			}
		case <-timeout:
			t.Fatalf("saw %d accepted + %d rejected of %d joins", accepted, rejected, n)
		}
	}
	if accepted < 2 || rejected == 0 {
		t.Fatalf("accepted=%d rejected=%d", accepted, rejected)
	}
	if highWater == 0 {
		t.Error("no CDN high-water event while filling a 24 Mbps budget")
	}
}

// TestSubscriptionCloseAndControllerClose pins the stream lifecycle: a
// closed subscription's channel terminates, late subscribers on a closed
// controller get a closed channel, and Close is idempotent.
func TestSubscriptionCloseAndControllerClose(t *testing.T) {
	c := testController(t, 64, 6000)
	sub := c.Subscribe()
	view := model.NewUniformView(c.cfg.Producers, 0)
	if _, err := c.Join(testCtx, vid(1), 12, 0, view); err != nil {
		t.Fatal(err)
	}
	sub.Close()
	for range sub.Events() {
		// drain whatever was in flight; the channel must close
	}
	// The control plane keeps running without subscribers.
	if _, err := c.Join(testCtx, vid(2), 12, 0, view); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	late := c.Subscribe()
	if _, ok := <-late.Events(); ok {
		t.Fatal("subscription on closed controller delivered an event")
	}
}

// TestJoinBatchCancellationLeaksNothing cancels a batch mid-fan-out (the
// cancel fires when the first admission event arrives) and checks the
// contract: every outcome is either admitted or a context error, cancelled
// entries are fully unwound (their IDs rejoin cleanly), the CDN holds no
// orphaned egress, and the overlay invariants survive. Run with -race.
func TestJoinBatchCancellationLeaksNothing(t *testing.T) {
	const n = 200
	c := testController16(t, 2*n, 6000)
	sub := c.Subscribe()
	defer sub.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for ev := range sub.Events() {
			if ev.Kind == EventJoinAccepted {
				cancel()
				return
			}
		}
	}()

	view := model.NewUniformView(c.cfg.Producers, 0)
	reqs := make([]JoinRequest, n)
	for i := range reqs {
		reqs[i] = JoinRequest{ID: vid(i), InboundMbps: 12, OutboundMbps: float64(i % 13), View: view}
	}
	outs := c.JoinBatch(ctx, reqs)
	cancel()

	admitted, cancelled := 0, 0
	var someCancelled model.ViewerID
	for _, o := range outs {
		switch {
		case o.Err == nil:
			if o.Outcome == nil || !o.Outcome.Result.Admitted {
				t.Fatalf("join %s: nil error but outcome %+v", o.ID, o.Outcome)
			}
			admitted++
		case errors.Is(o.Err, context.Canceled):
			if o.Outcome != nil {
				t.Fatalf("cancelled join %s still has an outcome", o.ID)
			}
			cancelled++
			someCancelled = o.ID
		default:
			t.Fatalf("join %s: unexpected error %v", o.ID, o.Err)
		}
	}
	if admitted == 0 {
		t.Fatal("cancellation fired before any admission")
	}
	if cancelled == 0 {
		t.Skip("batch completed before the cancellation propagated")
	}
	t.Logf("admitted=%d cancelled=%d", admitted, cancelled)

	// The session must look exactly like "admitted viewers joined, nothing
	// else happened": stats agree, CDN accounting matches the trees.
	if st := c.Stats(); st.Overlay.Viewers != admitted {
		t.Fatalf("viewers = %d, want %d", st.Overlay.Viewers, admitted)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// A cancelled entry is fully unwound: its ID and node slot are free.
	if _, err := c.Join(testCtx, someCancelled, 12, 0, view); err != nil {
		t.Fatalf("rejoin of cancelled %s: %v", someCancelled, err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinBatchPreCancelled pins the fast path: a batch under an
// already-cancelled context admits nobody and touches nothing.
func TestJoinBatchPreCancelled(t *testing.T) {
	c := testController(t, 128, 6000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	view := model.NewUniformView(c.cfg.Producers, 0)
	reqs := make([]JoinRequest, 10)
	for i := range reqs {
		reqs[i] = JoinRequest{ID: vid(i), InboundMbps: 12, View: view}
	}
	for _, o := range c.JoinBatch(ctx, reqs) {
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("join %s: err = %v, want context.Canceled", o.ID, o.Err)
		}
	}
	if st := c.Stats(); st.Overlay.Viewers != 0 {
		t.Fatalf("viewers = %d, want 0", st.Overlay.Viewers)
	}
	// Cancelled Join and Leave report the context error too.
	if _, err := c.Join(ctx, vid(0), 12, 0, view); !errors.Is(err, context.Canceled) {
		t.Fatalf("join err = %v", err)
	}
	if err := c.Leave(ctx, vid(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("leave err = %v", err)
	}
}

// TestDepartBatchCancellationKeepsViewersLeavable cancels a departure batch
// mid-flight and checks that not-yet-departed viewers keep their session
// and can still leave afterwards.
func TestDepartBatchCancellationKeepsViewersLeavable(t *testing.T) {
	const n = 120
	c := testController16(t, 2*n, 6000)
	view := model.NewUniformView(c.cfg.Producers, 0)
	reqs := make([]JoinRequest, n)
	for i := range reqs {
		reqs[i] = JoinRequest{ID: vid(i), InboundMbps: 12, OutboundMbps: float64(i % 13), View: view}
	}
	for _, o := range c.JoinBatch(testCtx, reqs) {
		if o.Err != nil {
			t.Fatalf("join %s: %v", o.ID, o.Err)
		}
	}

	sub := c.Subscribe()
	defer sub.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for ev := range sub.Events() {
			if ev.Kind == EventDeparted {
				cancel()
				return
			}
		}
	}()
	ids := make([]model.ViewerID, n)
	for i := range ids {
		ids[i] = vid(i)
	}
	departed := 0
	for _, o := range c.DepartBatch(ctx, ids) {
		switch {
		case o.Err == nil:
			departed++
		case errors.Is(o.Err, context.Canceled):
			// Still a member: departing again must succeed.
			if err := c.Leave(testCtx, o.ID); err != nil {
				t.Fatalf("leave of cancelled depart %s: %v", o.ID, err)
			}
		default:
			t.Fatalf("depart %s: %v", o.ID, o.Err)
		}
	}
	cancel()
	if departed == 0 {
		t.Fatal("cancellation fired before any departure")
	}
	if st := c.Stats(); st.Overlay.Viewers != 0 {
		t.Fatalf("viewers = %d, want 0 after cleanup", st.Overlay.Viewers)
	}
	if usage := c.CDN().Snapshot(); usage.OutTotalMbps > 1e-9 {
		t.Fatalf("cdn not drained: %v", usage.OutTotalMbps)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorReaderShardLocalCache pins the sharded monitor read path: the
// per-LSC reader answers from its cache within a tick and refreshes when
// the clock advances.
func TestMonitorReaderShardLocalCache(t *testing.T) {
	c := testController(t, 64, 6000)
	mon, err := NewMonitor(c.cfg.Producers, trace.DefaultTEEVEConfig(3), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	c.AttachMonitor(mon)
	mon.Advance(10 * time.Second)
	id := model.StreamID{Site: "A", Index: 1}
	for r, lsc := range c.lscs {
		reader := lsc.mon.Load()
		if reader == nil {
			t.Fatalf("region %d has no monitor reader", r)
		}
		st, err := reader.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.LatestFrame != 100 {
			t.Fatalf("region %d: latest = %d, want 100", r, st.LatestFrame)
		}
		again, _ := reader.Status(id)
		if again != st {
			t.Fatalf("region %d: cached status diverged", r)
		}
	}
	mon.Advance(20 * time.Second)
	var anyLSC *LSC
	for _, lsc := range c.lscs {
		anyLSC = lsc
		break
	}
	st, err := anyLSC.mon.Load().Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.LatestFrame != 200 {
		t.Fatalf("after advance: latest = %d, want 200 (cache not invalidated)", st.LatestFrame)
	}
}

// TestSubscriptionFlushDeliversBeforeClose pins the Flush barrier: a
// subscriber that flushes after its last operation and then closes must see
// every event, even though it never waited on the channel while publishing.
func TestSubscriptionFlushDeliversBeforeClose(t *testing.T) {
	const n = 200
	c := testController16(t, n, 0)
	sub := c.Subscribe()

	view := model.NewUniformView(c.cfg.Producers, 0)
	reqs := make([]JoinRequest, n)
	for i := range reqs {
		reqs[i] = JoinRequest{ID: vid(i), InboundMbps: 12, OutboundMbps: float64(i % 13), View: view}
	}
	for _, out := range c.JoinBatch(testCtx, reqs) {
		if out.Err != nil && !errors.Is(out.Err, ErrRejected) {
			t.Fatalf("join %s: %v", out.ID, out.Err)
		}
	}
	// Without Flush, Close here races the pump's final drain and can
	// discard ring events; with it, every admission event must be in the
	// channel buffer before the close.
	sub.Flush()
	sub.Close()
	got := 0
	for ev := range sub.Events() {
		if ev.Kind == EventJoinAccepted || ev.Kind == EventJoinRejected {
			got++
		}
	}
	if dropped := sub.Dropped(); dropped > 0 {
		t.Fatalf("flush-then-close dropped %d events", dropped)
	}
	if got != n {
		t.Fatalf("received %d admission events, want %d", got, n)
	}
}

// TestSubscriptionFlushAfterBusClose must not hang or panic.
func TestSubscriptionFlushAfterBusClose(t *testing.T) {
	c := testController16(t, 8, 0)
	sub := c.Subscribe()
	c.Close()
	sub.Flush()
	sub.Close()
}

// ringsOpened reports how many of the bus's rings have a buffer.
func ringsOpened(b *eventBus) int {
	n := 0
	for _, r := range b.rings {
		r.mu.Lock()
		if r.buf != nil {
			n++
		}
		r.mu.Unlock()
	}
	return n
}

// TestLazyRingsFirstSubscribeUnderChurn subscribes for the first time while
// one publisher per shard emits without pause, so the rings are allocated
// under live publication (run with -race). From each region's first
// delivered event on, Seq must be gap-free up to the ring's last sequence
// number, and nothing may be dropped.
func TestLazyRingsFirstSubscribeUnderChurn(t *testing.T) {
	const perRegion = 300
	for round := 0; round < 8; round++ {
		c := testController(t, 64, 6000)
		if n := ringsOpened(c.bus); n != 0 {
			t.Fatalf("round %d: %d rings allocated before any Subscribe", round, n)
		}
		var started sync.WaitGroup
		var done sync.WaitGroup
		for _, l := range c.lscs {
			started.Add(1)
			done.Add(1)
			go func(l *LSC) {
				defer done.Done()
				for i, post := 0, 0; post < perRegion; i++ {
					// An emit that starts on an active bus is published;
					// counting only those bounds what the rings and the
					// channel must hold, so nothing may be dropped.
					after := c.bus.active.Load()
					l.emit(Event{Kind: EventDeparted, Viewer: vid(i)})
					if i == 16 {
						started.Done()
					}
					if after {
						post++
					} else {
						runtime.Gosched() // let Subscribe run
					}
				}
			}(l)
		}
		started.Wait()
		sub := c.Subscribe()
		var got []Event
		consumed := make(chan struct{})
		go func() {
			defer close(consumed)
			for ev := range sub.Events() {
				got = append(got, ev)
			}
		}()
		done.Wait()
		sub.Flush()
		sub.Close()
		<-consumed

		if d := sub.Dropped(); d != 0 {
			t.Fatalf("round %d: %d events dropped with a consumer keeping up", round, d)
		}
		last := make(map[trace.Region]uint64)
		for _, ev := range got {
			if prev, ok := last[ev.Region]; ok && ev.Seq != prev+1 {
				t.Fatalf("round %d: region %d seq %d after %d", round, ev.Region, ev.Seq, prev)
			}
			last[ev.Region] = ev.Seq
		}
		for region, l := range c.lscs {
			r := c.bus.rings[int(region)]
			r.mu.Lock()
			seq := r.seq
			r.mu.Unlock()
			if last[region] != seq {
				t.Fatalf("round %d: region %d delivered through seq %d, ring published %d", round, region, last[region], seq)
			}
			if seq < perRegion {
				t.Fatalf("round %d: region %d published %d events after Subscribe, want >= %d", round, l.Region, seq, perRegion)
			}
		}
	}
}

// TestLazyRingOverflowCountsOverwritten publishes past EventBuffer into one
// ring before the pump drains it: exactly the overwritten events are counted
// in Dropped, and the survivors arrive in order. A close followed by a new
// Subscribe reuses the rings the first one allocated.
func TestLazyRingOverflowCountsOverwritten(t *testing.T) {
	const buffer, extra = 16, 5
	c := testController(t, 64, 6000, WithEventBuffer(buffer))
	sub := c.Subscribe()
	if n, want := ringsOpened(c.bus), len(c.bus.rings); n != want {
		t.Fatalf("%d of %d rings allocated after the first Subscribe", n, want)
	}
	// Publishing into the ring without the bus's kick stands for a pump
	// that falls behind: nothing drains until the flush below.
	r := c.bus.rings[0]
	for i := 0; i < buffer+extra; i++ {
		r.publish(Event{Kind: EventDeparted, Viewer: vid(i)})
	}
	sub.Flush()
	sub.Close()
	var got []Event
	for ev := range sub.Events() {
		got = append(got, ev)
	}
	if d := sub.Dropped(); d != extra {
		t.Fatalf("Dropped = %d, want the %d overwritten events", d, extra)
	}
	if len(got) != buffer {
		t.Fatalf("delivered %d events, want %d", len(got), buffer)
	}
	for i, ev := range got {
		if want := uint64(extra + 1 + i); ev.Seq != want || ev.Viewer != vid(extra+i) {
			t.Fatalf("event %d: seq %d viewer %s, want seq %d viewer %s", i, ev.Seq, ev.Viewer, want, vid(extra+i))
		}
	}

	bufs := make([]*Event, len(c.bus.rings))
	for i, r := range c.bus.rings {
		bufs[i] = &r.buf[0]
	}
	again := c.Subscribe()
	defer again.Close()
	for i, r := range c.bus.rings {
		r.mu.Lock()
		same := &r.buf[0] == bufs[i]
		r.mu.Unlock()
		if !same {
			t.Fatalf("ring %d reallocated by the second Subscribe", i)
		}
	}
	c.lscs[0].emit(Event{Kind: EventDeparted, Viewer: vid(99)})
	again.Flush()
	if ev := <-again.Events(); ev.Seq != buffer+extra+1 || ev.Viewer != vid(99) {
		t.Fatalf("second subscriber saw seq %d viewer %s, want seq %d viewer %s", ev.Seq, ev.Viewer, buffer+extra+1, vid(99))
	}
}
