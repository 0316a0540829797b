// Package telecast is an open reimplementation of 4D TeleCast (Arefin,
// Huang, Nahrstedt, Agarwal — ICDCS 2012): a hybrid CDN + P2P dissemination
// framework that delivers live multi-stream, multi-view 3D tele-immersive
// content to large passive audiences while preserving the inter-stream
// dependencies that make a 3D view coherent.
//
// The package is a façade: it re-exports the library's building blocks so
// applications depend on a single import.
//
//   - Producer modelling: sites, camera streams, views, the df/η stream
//     priority machinery (§II of the paper).
//   - The control plane: a Global Session Controller routing viewers to
//     region-local LSCs, each running the overlay construction pipeline —
//     priority inbound allocation, round-robin outbound allocation, degree
//     push-down topology formation (§IV) — and the delay-layer stream
//     subscription that bounds inter-stream skew by d_buff (§V).
//   - System adaptation: two-phase view changes served instantly from the
//     CDN, victim recovery on departures (§VI).
//   - A live emulation mode that runs producers, the CDN edge, and viewer
//     gateways as goroutines exchanging S-RTP frames over TCP.
//
// Quick start:
//
//	producers, _ := telecast.NewSession(
//	    telecast.NewRingSite("A", 8, 2.0, 10),
//	    telecast.NewRingSite("B", 8, 2.0, 10),
//	)
//	lat, _ := telecast.GenerateLatencyMatrix(telecast.DefaultLatencyConfig(1100, 42))
//	ctrl, _ := telecast.NewController(producers, lat)
//	out, _ := ctrl.Join(ctx, "viewer-1", 12, 8, telecast.NewUniformView(producers, 0))
//	fmt.Println(out.Result.Accepted)
//
// The control plane is context-aware (batch admissions stop dispatching on
// cancellation), reports failures through typed errors (ErrRejected,
// ErrViewerExists, …, matched with errors.Is/As), and is observable through
// Controller.Subscribe, a stream of typed events fed from per-shard ring
// buffers so observation never serializes the sharded hot path.
package telecast

import (
	"telecast/internal/cdn"
	"telecast/internal/emu"
	"telecast/internal/layering"
	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/trace"
)

// Producer-side domain model (§II).
type (
	// Session is the static producer-side description: the sites whose
	// joint performance viewers watch.
	Session = model.Session
	// Site is one 3DTI producer site and its camera streams.
	Site = model.Site
	// Stream is a single camera stream with orientation and bitrate.
	Stream = model.Stream
	// StreamID identifies a stream within a site.
	StreamID = model.StreamID
	// SiteID identifies a producer site.
	SiteID = model.SiteID
	// ViewerID identifies a passive viewer.
	ViewerID = model.ViewerID
	// View is a global view request: one orientation per site.
	View = model.View
	// ViewRequest is a composed, priority-ordered stream request.
	ViewRequest = model.ViewRequest
	// RankedStream carries a stream's df, η, and global priority key.
	RankedStream = model.RankedStream
	// Vec3 is an orientation vector in the shared virtual space.
	Vec3 = model.Vec3
)

// Control plane (§III–§VI).
type (
	// Controller is the GSC plus its LSC fleet: joins, departures, view
	// changes, statistics, events, and invariant checking.
	Controller = session.Controller
	// Config assembles a session: producers, CDN bounds, delay-layer
	// geometry, latency substrate, protocol processing times. It is what an
	// Option refines; NewController is the only way to build from it.
	Config = session.Config
	// Option customizes NewController (WithCDN, WithHierarchy, …).
	Option = session.Option
	// JoinOutcome reports an admission attempt and its protocol latency.
	JoinOutcome = session.JoinOutcome
	// JoinRequest is one admission request, used by Admit and JoinBatch.
	JoinRequest = session.JoinRequest
	// RegionHint optionally steers a join's placement to an LSC region;
	// build one with InRegion.
	RegionHint = session.RegionHint
	// Region labels a latency-matrix geographic cluster / LSC shard.
	Region = trace.Region
	// BatchOutcome is a per-request result of JoinBatch/DepartBatch.
	BatchOutcome = session.BatchOutcome
	// ViewChangeOutcome reports a two-phase view change and both its
	// latencies (fast CDN switch, background join).
	ViewChangeOutcome = session.ViewChangeOutcome
	// MigrateRequest describes one cross-region handoff for
	// Controller.Migrate: destination region, reason label, and the
	// rejection policy.
	MigrateRequest = session.MigrateRequest
	// MigrateOutcome reports how a handoff ended: rebound on the
	// destination, restored on the source, or departed.
	MigrateOutcome = session.MigrateOutcome
	// Migration pairs a viewer with its request for MigrateBatch.
	Migration = session.Migration
	// MigrateBatchOutcome is a per-migration result of MigrateBatch.
	MigrateBatchOutcome = session.MigrateBatchOutcome
	// Stats aggregates the overlay and CDN state across LSCs.
	Stats = session.Stats
	// CDNConfig bounds the distribution substrate.
	CDNConfig = cdn.Config
	// Hierarchy is the delay-layer geometry (Δ, d_buff, κ, d_max).
	Hierarchy = layering.Hierarchy
)

// Control-plane errors. Match with errors.Is/As through any wrapping.
var (
	// ErrRejected matches every admission-control rejection.
	ErrRejected = session.ErrRejected
	// ErrViewerExists is returned when a join reuses a live viewer ID.
	ErrViewerExists = session.ErrViewerExists
	// ErrUnknownViewer is returned for operations on unrouted viewer IDs.
	ErrUnknownViewer = session.ErrUnknownViewer
	// ErrMatrixExhausted is returned when the latency substrate is full.
	ErrMatrixExhausted = session.ErrMatrixExhausted
	// ErrMigrating is returned for operations racing a live cross-region
	// handoff of the same viewer.
	ErrMigrating = session.ErrMigrating
	// ErrMigrationInFlight is returned by Validate mid-handoff.
	ErrMigrationInFlight = session.ErrMigrationInFlight
	// ErrUnknownRegion is returned by Migrate for undefined destinations.
	ErrUnknownRegion = session.ErrUnknownRegion
)

// RejectionError carries the admission-failure cause of a rejected request;
// retrieve it with errors.As.
type RejectionError = session.RejectionError

// RejectReason names an admission-failure cause.
type RejectReason = session.RejectReason

// The admission-failure causes of §IV–§VI.
const (
	ReasonCDNEgress       = session.ReasonCDNEgress
	ReasonDelayBound      = session.ReasonDelayBound
	ReasonDegreeExhausted = session.ReasonDegreeExhausted
	ReasonInboundBound    = session.ReasonInboundBound
)

// Control-plane event stream (Controller.Subscribe).
type (
	// Event is one typed control-plane observation.
	Event = session.Event
	// EventKind discriminates events.
	EventKind = session.EventKind
	// Subscription is one observer of the control plane.
	Subscription = session.Subscription
)

// Event kinds delivered by Controller.Subscribe.
const (
	EventJoinAccepted      = session.EventJoinAccepted
	EventJoinRejected      = session.EventJoinRejected
	EventDeparted          = session.EventDeparted
	EventViewChanged       = session.EventViewChanged
	EventStreamDropped     = session.EventStreamDropped
	EventCDNHighWater      = session.EventCDNHighWater
	EventMigratedOut       = session.EventMigratedOut
	EventMigratedIn        = session.EventMigratedIn
	EventMigrationRestored = session.EventMigrationRestored
)

// Workload substrates (§VII).
type (
	// LatencyMatrix is the synthetic PlanetLab-like propagation-delay
	// substrate.
	LatencyMatrix = trace.LatencyMatrix
	// LatencyConfig parameterizes the matrix synthesis.
	LatencyConfig = trace.LatencyConfig
	// TEEVEConfig parameterizes the synthetic 3DTI activity traces.
	TEEVEConfig = trace.TEEVEConfig
	// TEEVETrace is a per-stream frame-size series.
	TEEVETrace = trace.TEEVETrace
)

// Live emulation (goroutines + TCP).
type (
	// Cluster is a running live overlay: CDN edge, producers, viewers.
	Cluster = emu.Cluster
	// ClusterConfig sizes a live cluster.
	ClusterConfig = emu.Config
	// ViewerNode is a live viewer gateway.
	ViewerNode = emu.ViewerNode
	// ViewerReport snapshots a live viewer's data-plane health.
	ViewerReport = emu.ViewerReport
)

// Producer-side constructors.
var (
	// NewSession builds a producer session from sites.
	NewSession = model.NewSession
	// NewRingSite arranges n cameras uniformly on a ring.
	NewRingSite = model.NewRingSite
	// NewUniformView looks at every site from the same ring angle.
	NewUniformView = model.NewUniformView
	// ComposeView translates a view into a prioritized stream request.
	ComposeView = model.ComposeView
)

// Control-plane constructors.
var (
	// NewController builds the GSC/LSC control plane for a producer
	// session over a latency substrate, refined by functional options.
	NewController = session.NewController
	// InRegion builds a RegionHint pinning a JoinRequest to an LSC region.
	InRegion = session.InRegion
	// NewHierarchy validates a delay-layer geometry.
	NewHierarchy = layering.NewHierarchy
	// DefaultCDNConfig is the paper's CDN: Δ=60 s, 6000 Mbps egress.
	DefaultCDNConfig = cdn.DefaultConfig
)

// Functional options for NewController.
var (
	// WithCDN bounds the shared distribution substrate.
	WithCDN = session.WithCDN
	// WithHierarchy sets d_buff, κ, and d_max.
	WithHierarchy = session.WithHierarchy
	// WithProcessing sets per-hop and controller processing delays.
	WithProcessing = session.WithProcessing
	// WithStrictFastPath bounds the view-change fast path by CDN egress.
	WithStrictFastPath = session.WithStrictFastPath
	// WithCutoffDF sets the view-composition df threshold.
	WithCutoffDF = session.WithCutoffDF
	// WithEventBuffer sizes the event rings and subscriber channels.
	WithEventBuffer = session.WithEventBuffer
	// WithTelemetry arms the latency-histogram/flight-recorder layer.
	WithTelemetry = session.WithTelemetry
	// WithSlowOpThreshold sets the flight recorder's capture bar.
	WithSlowOpThreshold = session.WithSlowOpThreshold
)

// Substrate constructors.
var (
	// GenerateLatencyMatrix synthesizes the PlanetLab-like matrix.
	GenerateLatencyMatrix = trace.GenerateLatencyMatrix
	// DefaultLatencyConfig calibrates it to published PlanetLab shape.
	DefaultLatencyConfig = trace.DefaultLatencyConfig
	// GenerateTEEVE synthesizes a 3DTI activity trace.
	GenerateTEEVE = trace.GenerateTEEVE
	// DefaultTEEVEConfig is the evaluation's 2 Mbps / 10 fps profile.
	DefaultTEEVEConfig = trace.DefaultTEEVEConfig
)

// Emulation constructors.
var (
	// StartCluster launches a live overlay cluster.
	StartCluster = emu.Start
	// DefaultClusterConfig returns laptop-scale timings.
	DefaultClusterConfig = emu.DefaultConfig
)
