package session

import (
	"time"

	"telecast/internal/cdn"
	"telecast/internal/model"
	"telecast/internal/trace"
)

// Option customizes a controller under construction. Options mutate the
// paper's evaluation defaults; pass none to get exactly the §VII setup for
// the given producers and latency substrate.
type Option func(*Config)

// WithCDN bounds the shared distribution substrate: egress budget C^cdn_obw,
// producer upload bound, the constant delay Δ, and the edge-server count.
func WithCDN(cfg cdn.Config) Option {
	return func(c *Config) { c.CDN = cfg }
}

// WithHierarchy sets the delay-layer geometry: the synchronization buffer
// d_buff, the layer-width divisor κ, and the viewer-side end-to-end delay
// bound d_max. Δ comes from the CDN configuration.
func WithHierarchy(buff time.Duration, kappa int, dMax time.Duration) Option {
	return func(c *Config) {
		c.Buff = buff
		c.Kappa = kappa
		c.DMax = dMax
	}
}

// WithProcessing models the per-hop forwarding delay δ at viewers and the
// controller processing times per protocol step.
func WithProcessing(viewerProc, gscProc, lscProc time.Duration) Option {
	return func(c *Config) {
		c.Proc = viewerProc
		c.GSCProc = gscProc
		c.LSCProc = lscProc
	}
}

// WithStrictFastPath makes the view-change fast path respect the CDN egress
// bound instead of assuming the transient is absorbed by the edge caches.
func WithStrictFastPath(strict bool) Option {
	return func(c *Config) { c.StrictFastPath = strict }
}

// WithCutoffDF sets df_th, the stream differentiation cut-off applied when
// composing views (§II-C).
func WithCutoffDF(df float64) Option {
	return func(c *Config) { c.CutoffDF = df }
}

// WithEventBuffer sizes the per-shard event rings and subscriber channels
// (default 4096). Larger buffers tolerate slower consumers before events
// are counted as dropped. The rings are allocated by the first Subscribe.
func WithEventBuffer(n int) Option {
	return func(c *Config) { c.EventBuffer = n }
}

// WithTelemetry arms the wall-clock observability layer (latency
// histograms, outcome counters, slow-op flight recorder) at construction.
// Off by default: every telemetry hook then costs one atomic load.
func WithTelemetry(enabled bool) Option {
	return func(c *Config) { c.Telemetry = enabled }
}

// WithSlowOpThreshold sets the flight recorder's capture bar: operations
// at or above d are kept in the slow-op ring. Zero keeps the default
// (25 ms); negative captures every traced operation.
func WithSlowOpThreshold(d time.Duration) Option {
	return func(c *Config) { c.SlowOpThreshold = d }
}

// NewController builds the control plane for a producer session over a
// latency substrate, with functional options refining the paper's
// evaluation defaults:
//
//	ctrl, err := session.NewController(producers, lat,
//	    session.WithCDN(cdnCfg),
//	    session.WithStrictFastPath(true))
//
// The latency matrix must be large enough for the GSC, one LSC per region,
// and every viewer that will join. It is the only constructor.
func NewController(producers *model.Session, lat *trace.LatencyMatrix, opts ...Option) (*Controller, error) {
	cfg := defaultConfig(producers, lat)
	for _, opt := range opts {
		opt(&cfg)
	}
	return newController(cfg)
}
