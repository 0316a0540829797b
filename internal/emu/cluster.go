package emu

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"telecast/internal/buffer"
	"telecast/internal/cdn"
	"telecast/internal/media"
	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/trace"
)

// Config sizes a live emulation cluster. Delays are scaled down from the
// paper's Δ=60 s so integration runs finish in seconds while exercising the
// same code paths.
type Config struct {
	// Producers is the 3DTI session (sites × camera streams).
	Producers *model.Session
	// Delta is the emulated CDN constant delay.
	Delta time.Duration
	// Buff, Cache, Skew size the viewer buffers.
	Buff  time.Duration
	Cache time.Duration
	Skew  time.Duration
	// Kappa is the layer-width divisor κ.
	Kappa int
	// DMax bounds viewer end-to-end delay.
	DMax time.Duration
	// TraceSeed seeds the synthetic activity traces.
	TraceSeed int64
	// SourceDuration is the recorded activity length (sources loop).
	SourceDuration time.Duration
	// MaxViewers sizes the control plane's latency matrix.
	MaxViewers int
}

// DefaultConfig returns laptop-scale timings: Δ=300 ms, 150 ms buffer,
// κ=2 (τ=75 ms), d_max=3 s.
func DefaultConfig(producers *model.Session) Config {
	return Config{
		Producers:      producers,
		Delta:          300 * time.Millisecond,
		Buff:           150 * time.Millisecond,
		Cache:          10 * time.Second,
		Skew:           100 * time.Millisecond,
		Kappa:          2,
		DMax:           3 * time.Second,
		TraceSeed:      1,
		SourceDuration: 30 * time.Second,
		MaxViewers:     64,
	}
}

// Cluster is a running live overlay: the control plane (GSC/LSCs), the CDN
// edge, and the viewer gateways. The data plane is event-driven: the
// cluster subscribes to the control plane's event stream and re-wires
// viewer subscriptions whenever a join, departure, view change, or
// adaptation drop is published — the same signal an external operator
// would consume.
type Cluster struct {
	cfg   Config
	ctrl  *session.Controller
	sub   *session.Subscription
	cdn   *CDNNode
	start time.Time

	mu      sync.Mutex
	viewers map[model.ViewerID]*ViewerNode

	// applyMu guards the event-application ledger: applied counts, per
	// viewer, the operation events the loop has processed (reconciled);
	// gen is closed and replaced on every application so waiters can
	// block without polling. Waiting on the viewer's own count — not a
	// global one — keeps concurrent cluster operations from satisfying
	// each other's waits.
	applyMu      sync.Mutex
	applied      map[model.ViewerID]int
	gen          chan struct{}
	reconcileErr error

	loopDone chan struct{}
}

// Start builds the control plane, launches the CDN edge and producer
// sources, and returns the running cluster. Call Close to tear it down.
func Start(cfg Config) (*Cluster, error) {
	if cfg.Producers == nil {
		return nil, fmt.Errorf("emu: producers required")
	}
	// One region ⇒ one LSC: at laptop scale every viewer shares the same
	// cluster so peer trees actually form (the multi-LSC split only
	// matters for thousand-viewer simulations).
	lat, err := trace.GenerateLatencyMatrix(trace.LatencyConfig{
		Nodes:     cfg.MaxViewers + 16,
		Regions:   1,
		IntraMean: 2 * time.Millisecond,
		InterMean: 8 * time.Millisecond,
		Sigma:     0.3,
		Seed:      cfg.TraceSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("emu: %w", err)
	}
	cdnCfg := cdn.DefaultConfig()
	cdnCfg.Delta = cfg.Delta
	cdnCfg.OutboundCapacityMbps = 0 // unbounded for live runs
	ctrl, err := session.NewController(cfg.Producers, lat,
		session.WithCDN(cdnCfg),
		session.WithHierarchy(cfg.Buff, cfg.Kappa, cfg.DMax),
		session.WithProcessing(5*time.Millisecond, time.Millisecond, 2*time.Millisecond))
	if err != nil {
		return nil, fmt.Errorf("emu: %w", err)
	}

	sources, err := media.SessionSources(cfg.Producers, trace.DefaultTEEVEConfig(cfg.TraceSeed), cfg.SourceDuration)
	if err != nil {
		return nil, fmt.Errorf("emu: %w", err)
	}
	start := time.Now()
	cdnNode, err := newCDNNode(sources, cfg.Delta, cfg.bufferConfig(), start)
	if err != nil {
		return nil, fmt.Errorf("emu: %w", err)
	}
	c := &Cluster{
		cfg:      cfg,
		ctrl:     ctrl,
		sub:      ctrl.Subscribe(),
		cdn:      cdnNode,
		start:    start,
		viewers:  make(map[model.ViewerID]*ViewerNode),
		applied:  make(map[model.ViewerID]int),
		gen:      make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	go c.eventLoop()
	return c, nil
}

// eventLoop consumes the control plane's event stream and keeps the data
// plane aligned with the overlay: every join, rejection, departure, view
// change, and adaptation drop triggers a reconciliation pass. Exactly one
// event per control-plane operation advances that viewer's applied count,
// which is what the public operations wait on.
func (c *Cluster) eventLoop() {
	defer close(c.loopDone)
	for ev := range c.sub.Events() {
		switch ev.Kind {
		case session.EventJoinAccepted, session.EventJoinRejected,
			session.EventDeparted, session.EventViewChanged:
			err := c.reconcile()
			c.applyMu.Lock()
			c.applied[ev.Viewer]++
			c.reconcileErr = err
			close(c.gen)
			c.gen = make(chan struct{})
			c.applyMu.Unlock()
		case session.EventStreamDropped:
			// Adaptation drops re-wire survivors but belong to no
			// cluster operation; don't advance the ledger.
			_ = c.reconcile()
		}
	}
}

// appliedFor reads a viewer's current applied-event count. Callers snapshot
// it before issuing an operation and then wait for it to advance.
func (c *Cluster) appliedFor(id model.ViewerID) int {
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	return c.applied[id]
}

// waitApplied blocks until the event loop has applied more than prev events
// for the viewer — i.e. the caller's own operation has been reconciled —
// then reports the last reconciliation error. If the stream stalls (an
// overflowing subscription drops events) it falls back to reconciling
// directly so the data plane cannot wedge.
func (c *Cluster) waitApplied(id model.ViewerID, prev int) error {
	deadline := time.After(10 * time.Second)
	for {
		c.applyMu.Lock()
		if c.applied[id] > prev {
			err := c.reconcileErr
			c.applyMu.Unlock()
			return err
		}
		gen := c.gen
		c.applyMu.Unlock()
		select {
		case <-gen:
		case <-c.loopDone:
			return c.reconcile()
		case <-deadline:
			return c.reconcile()
		}
	}
}

func (c Config) bufferConfig() buffer.Config {
	return buffer.Config{Buff: c.Buff, Cache: c.Cache, Skew: c.Skew}
}

// Controller exposes the control plane for inspection.
func (c *Cluster) Controller() *session.Controller { return c.ctrl }

// AddViewer admits a viewer through the control plane and wires its data
// plane: the viewer node goes live first, the join is issued, and the event
// loop reacts to the published JoinAccepted by subscribing the node to its
// computed parents. AddViewer returns once the wiring is in place.
func (c *Cluster) AddViewer(id model.ViewerID, inMbps, outMbps float64, view model.View) (*ViewerNode, error) {
	node, err := newViewerNode(id, c.cfg.bufferConfig(), c.start)
	if err != nil {
		return nil, fmt.Errorf("emu add %s: %w", id, err)
	}
	c.mu.Lock()
	c.viewers[id] = node
	c.mu.Unlock()
	prev := c.appliedFor(id)
	out, err := c.ctrl.Join(context.Background(), id, inMbps, outMbps, view)
	if err != nil {
		c.mu.Lock()
		delete(c.viewers, id)
		c.mu.Unlock()
		node.close()
		if errors.Is(err, session.ErrRejected) {
			// The shard processed (and published) the rejection; the
			// record stays routed for the acceptance metrics.
			return nil, fmt.Errorf("emu add %s: request rejected by admission control: %w", id, err)
		}
		return nil, fmt.Errorf("emu add %s: %w", id, err)
	}
	if err := c.waitApplied(id, prev); err != nil {
		return nil, fmt.Errorf("emu add %s: %w", id, err)
	}
	// Render at the highest stream rate present.
	interval := time.Second / 10
	for _, sid := range out.Result.Accepted {
		if st, ok := c.cfg.Producers.Stream(sid); ok && st.FrameRate > 0 {
			if iv := time.Duration(float64(time.Second) / st.FrameRate); iv < interval {
				interval = iv
			}
		}
	}
	node.startRenderer(interval)
	return node, nil
}

// RemoveViewer departs a viewer; the event loop re-wires survivors when the
// Departed event arrives (the control plane's victim recovery).
func (c *Cluster) RemoveViewer(id model.ViewerID) error {
	c.mu.Lock()
	node := c.viewers[id]
	delete(c.viewers, id)
	c.mu.Unlock()
	if node != nil {
		node.close()
	}
	prev := c.appliedFor(id)
	if err := c.ctrl.Leave(context.Background(), id); err != nil {
		return fmt.Errorf("emu remove %s: %w", id, err)
	}
	return c.waitApplied(id, prev)
}

// ChangeView switches a viewer's view: the control plane recomputes the
// overlay (two-phase change) and the event loop re-wires the data plane
// when the ViewChanged event arrives.
func (c *Cluster) ChangeView(id model.ViewerID, view model.View) error {
	prev := c.appliedFor(id)
	if _, err := c.ctrl.ChangeView(context.Background(), id, view); err != nil && !errors.Is(err, session.ErrRejected) {
		return fmt.Errorf("emu change %s: %w", id, err)
	}
	return c.waitApplied(id, prev)
}

// reconcile aligns every live viewer's subscriptions with the control
// plane's current overlay: drop streams no longer assigned, subscribe to new
// or moved parents. Subscription points start at the live edge (negative)
// for CDN parents and at frame 0 (full catch-up from cache) for viewer
// parents, exercising both parent-side serving paths.
func (c *Cluster) reconcile() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, node := range c.viewers {
		st, ok := c.overlayViewer(id)
		if !ok {
			continue
		}
		want := make(map[model.StreamID]model.ViewerID, len(st))
		for sid, parent := range st {
			want[sid] = parent
		}
		node.mu.Lock()
		current := make(map[model.StreamID]model.ViewerID, len(node.byStream))
		for sid, p := range node.byStream {
			current[sid] = p
		}
		node.mu.Unlock()
		for sid := range current {
			if _, keep := want[sid]; !keep {
				node.Unsubscribe(sid)
			}
		}
		for sid, parentID := range want {
			if current[sid] == parentID {
				continue
			}
			if cur, had := current[sid]; had && cur != parentID {
				node.Unsubscribe(sid)
			}
			addr, from, err := c.parentEndpoint(parentID)
			if err != nil {
				return err
			}
			if err := node.Subscribe(sid, parentID, addr, from); err != nil {
				return fmt.Errorf("subscribe %s to %s for %v: %w", id, parentID, sid, err)
			}
		}
	}
	return nil
}

// overlayViewer reads a viewer's per-stream parents out of the control
// plane ("" = CDN).
func (c *Cluster) overlayViewer(id model.ViewerID) (map[model.StreamID]model.ViewerID, bool) {
	for _, lsc := range c.ctrl.LSCs() {
		if parents, ok := lsc.ViewerParents(id); ok {
			out := make(map[model.StreamID]model.ViewerID, len(parents))
			for sid, p := range parents {
				if p == "" {
					out[sid] = cdnNodeID
				} else {
					out[sid] = p
				}
			}
			return out, true
		}
	}
	return nil, false
}

// parentEndpoint resolves a parent node ID to a dialable address and the
// initial subscription point.
func (c *Cluster) parentEndpoint(parentID model.ViewerID) (addr string, from int64, err error) {
	if parentID == cdnNodeID {
		return c.cdn.Addr(), -1, nil // live edge from the CDN
	}
	node, ok := c.viewers[parentID]
	if !ok {
		return "", 0, fmt.Errorf("parent %s has no live node", parentID)
	}
	return node.Addr(), 0, nil // catch up from the parent's cache
}

// Viewer returns a live viewer node.
func (c *Cluster) Viewer(id model.ViewerID) (*ViewerNode, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.viewers[id]
	return v, ok
}

// Close tears the whole cluster down: the event loop first (so nothing
// re-wires mid-teardown), then viewers, then the CDN edge.
func (c *Cluster) Close() {
	c.sub.Close()
	<-c.loopDone
	c.ctrl.Close()
	c.mu.Lock()
	viewers := make([]*ViewerNode, 0, len(c.viewers))
	for _, v := range c.viewers {
		viewers = append(viewers, v)
	}
	c.viewers = make(map[model.ViewerID]*ViewerNode)
	c.mu.Unlock()
	for _, v := range viewers {
		v.close()
	}
	c.cdn.close()
}
