// Package httpapi puts the 4D TeleCast control plane on a socket: an
// HTTP/JSON server wrapping session.Controller with batched admission,
// departure, view-change, and migration endpoints, a streamed event feed,
// and cheap health/metrics probes. The wire vocabulary mirrors the workload
// executor's ControlPlane seam one-to-one, so the companion client package
// can drive any catalog scenario over a socket with the pipeline semantics
// intact, and typed session errors survive the round trip.
package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/telemetry"
	"telecast/internal/trace"
	"telecast/internal/workload"
)

// Endpoint paths. The single-operation endpoints accept one WireRequest
// (kind implied) and answer one WireOutcome — or a WireError body with the
// mapped status when the operation failed. The batch endpoint accepts any
// kind mix and always answers 200 with per-outcome errors embedded.
const (
	PathJoin    = "/v1/join"
	PathLeave   = "/v1/leave"
	PathView    = "/v1/view"
	PathMigrate = "/v1/migrate"
	PathBatch   = "/v1/batch"
	PathEvents  = "/v1/events"
	PathHealthz = "/healthz"
	PathMetricz = "/metricz"
	// PathMetrics is the Prometheus text exposition of the controller's
	// telemetry collector; PathSlowOps dumps the slow-op flight recorder.
	PathMetrics = "/metrics"
	PathSlowOps = "/debug/slowops"
)

// WireRequest is one control-plane operation on the wire — the JSON form of
// workload.Request.
type WireRequest struct {
	// Kind is the operation: "join", "leave", "view-change", "migrate".
	// Single-operation endpoints imply it and ignore the field.
	Kind string `json:"kind,omitempty"`
	// ID is the viewer.
	ID string `json:"id"`
	// InboundMbps and OutboundMbps apply to joins.
	InboundMbps  float64 `json:"inbound_mbps,omitempty"`
	OutboundMbps float64 `json:"outbound_mbps,omitempty"`
	// ViewAngle applies to joins and view changes (uniform views).
	ViewAngle float64 `json:"view_angle,omitempty"`
	// Region hints a join's placement or names a migration's destination;
	// absent means default placement.
	Region *int `json:"region,omitempty"`
	// Cause labels a migration on the event stream.
	Cause string `json:"cause,omitempty"`
	// DepartOnReject selects the migration failure policy.
	DepartOnReject bool `json:"depart_on_reject,omitempty"`
}

// WireOutcome is the per-request result on the wire — the JSON form of
// workload.Outcome, with the error as a structured body.
type WireOutcome struct {
	ID       string     `json:"id"`
	Region   int        `json:"region"`
	Admitted bool       `json:"admitted,omitempty"`
	Landed   bool       `json:"landed,omitempty"`
	Restored bool       `json:"restored,omitempty"`
	Departed bool       `json:"departed,omitempty"`
	Error    *WireError `json:"error,omitempty"`
}

// BatchRequest and BatchResponse frame the batch endpoint.
type BatchRequest struct {
	Requests []WireRequest `json:"requests"`
}

// BatchResponse carries outcomes in request order.
type BatchResponse struct {
	Outcomes []WireOutcome `json:"outcomes"`
}

// Error codes: every typed session error maps to exactly one code, and the
// client maps each code back to the sentinel (or reconstructs the
// *RejectionError) so errors.Is/errors.As keep working across the wire.
const (
	CodeViewerExists    = "viewer-exists"
	CodeUnknownViewer   = "unknown-viewer"
	CodeMigrating       = "migrating"
	CodeMatrixExhausted = "matrix-exhausted"
	CodeUnknownRegion   = "unknown-region"
	CodeRejected        = "rejected"
	CodeCanceled        = "canceled"
	CodeBadRequest      = "bad-request"
	CodeInternal        = "internal"
	// CodeTooLarge answers an op request whose body exceeds MaxBodyBytes.
	CodeTooLarge = "too-large"
)

// WireError is the structured error body. Code drives reconstruction;
// Viewer and Reason let the client rebuild a *session.RejectionError with
// the exact numeric cause.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Viewer  string `json:"viewer,omitempty"`
	Reason  uint8  `json:"reason,omitempty"`
}

// EncodeError maps a control-plane error to its wire form. nil stays nil.
func EncodeError(err error) *WireError {
	if err == nil {
		return nil
	}
	we := &WireError{Code: CodeInternal, Message: err.Error()}
	var rej *session.RejectionError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		we.Code = CodeTooLarge
	case errors.As(err, &rej):
		we.Code = CodeRejected
		we.Viewer = string(rej.Viewer)
		we.Reason = uint8(rej.Reason)
	case errors.Is(err, session.ErrRejected):
		we.Code = CodeRejected
	case errors.Is(err, session.ErrViewerExists):
		we.Code = CodeViewerExists
	case errors.Is(err, session.ErrUnknownViewer):
		we.Code = CodeUnknownViewer
	case errors.Is(err, session.ErrMigrating):
		we.Code = CodeMigrating
	case errors.Is(err, session.ErrMatrixExhausted):
		we.Code = CodeMatrixExhausted
	case errors.Is(err, session.ErrUnknownRegion):
		we.Code = CodeUnknownRegion
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		we.Code = CodeCanceled
	}
	return we
}

// StatusFor maps an error code to the HTTP status the single-operation
// endpoints answer with.
func StatusFor(code string) int {
	switch code {
	case CodeViewerExists, CodeMigrating:
		return http.StatusConflict
	case CodeUnknownViewer:
		return http.StatusNotFound
	case CodeMatrixExhausted:
		return http.StatusServiceUnavailable
	case CodeUnknownRegion, CodeBadRequest:
		return http.StatusBadRequest
	case CodeRejected:
		return http.StatusUnprocessableEntity
	case CodeCanceled:
		return http.StatusServiceUnavailable
	case CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusInternalServerError
	}
}

// ToWireRequest converts the executor's request to its wire form.
func ToWireRequest(rq workload.Request) WireRequest {
	w := WireRequest{
		Kind:           rq.Kind.String(),
		ID:             string(rq.ID),
		InboundMbps:    rq.InboundMbps,
		OutboundMbps:   rq.OutboundMbps,
		ViewAngle:      rq.ViewAngle,
		Cause:          rq.Cause,
		DepartOnReject: rq.DepartOnReject,
	}
	if r, ok := rq.Region.Region(); ok {
		n := int(r)
		w.Region = &n
	}
	return w
}

// ParseKind maps a wire kind back to the executor vocabulary.
func ParseKind(s string) (workload.EventKind, error) {
	switch s {
	case "join":
		return workload.EventJoin, nil
	case "leave":
		return workload.EventLeave, nil
	case "view-change":
		return workload.EventViewChange, nil
	case "migrate":
		return workload.EventMigrate, nil
	default:
		return 0, fmt.Errorf("httpapi: unknown request kind %q", s)
	}
}

// ToRequest converts a wire request back to the executor's form. kind
// overrides the wire field when non-zero (the single-operation endpoints).
func (w WireRequest) ToRequest(kind workload.EventKind) (workload.Request, error) {
	if kind == 0 {
		var err error
		if kind, err = ParseKind(w.Kind); err != nil {
			return workload.Request{}, err
		}
	}
	if w.ID == "" {
		return workload.Request{}, errors.New("httpapi: request missing viewer id")
	}
	rq := workload.Request{
		Kind:           kind,
		ID:             model.ViewerID(w.ID),
		InboundMbps:    w.InboundMbps,
		OutboundMbps:   w.OutboundMbps,
		ViewAngle:      w.ViewAngle,
		Cause:          w.Cause,
		DepartOnReject: w.DepartOnReject,
	}
	if w.Region != nil {
		rq.Region = session.InRegion(trace.Region(*w.Region))
	}
	return rq, nil
}

// ToWireOutcome converts an executor outcome to its wire form.
func ToWireOutcome(o workload.Outcome) WireOutcome {
	return WireOutcome{
		ID:       string(o.ID),
		Region:   o.Region,
		Admitted: o.Admitted,
		Landed:   o.Landed,
		Restored: o.Restored,
		Departed: o.Departed,
		Error:    EncodeError(o.Err),
	}
}

// Wire event kinds beyond the session vocabulary: feed-level notices.
const (
	// KindFeedDropped is the notice the feed emits in place of events this
	// subscriber missed; Dropped counts them. Drops surface explicitly —
	// never as silent sequence gaps.
	KindFeedDropped = "feed-dropped"
)

// WireEvent is one feed line: a session event (Kind from
// session.EventKind.String, Seq ≥ 1) or a feed notice (KindFeedDropped with
// Dropped set).
type WireEvent struct {
	Kind   string `json:"kind"`
	Region int    `json:"region"`
	Seq    uint64 `json:"seq,omitempty"`
	Viewer string `json:"viewer,omitempty"`
	// Streams counts a join's or view change's accepted subscriptions.
	Streams int `json:"streams,omitempty"`
	// Stream names a dropped subscription ("S<idx>@<site>").
	Stream string `json:"stream,omitempty"`
	// Reason carries the numeric admission-failure or drop cause;
	// ReasonText its rendering.
	Reason     uint8   `json:"reason,omitempty"`
	ReasonText string  `json:"reason_text,omitempty"`
	PeakMbps   float64 `json:"peak_mbps,omitempty"`
	// From and To frame a migration event's handoff.
	From  *int   `json:"from,omitempty"`
	To    *int   `json:"to,omitempty"`
	Cause string `json:"cause,omitempty"`
	// Dropped counts missed events on a KindFeedDropped notice.
	Dropped uint64 `json:"dropped,omitempty"`
}

// ToWireEvent converts a session event to its feed form.
func ToWireEvent(ev session.Event) WireEvent {
	w := WireEvent{
		Kind:     ev.Kind.String(),
		Region:   int(ev.Region),
		Seq:      ev.Seq,
		Viewer:   string(ev.Viewer),
		Streams:  ev.Streams,
		PeakMbps: ev.PeakMbps,
		Cause:    ev.Cause,
	}
	if ev.Reason != session.ReasonNone {
		w.Reason = uint8(ev.Reason)
		w.ReasonText = ev.Reason.String()
	}
	if ev.Kind == session.EventStreamDropped {
		w.Stream = ev.Stream.String()
	}
	switch ev.Kind {
	case session.EventMigratedOut, session.EventMigratedIn, session.EventMigrationRestored:
		from, to := int(ev.From), int(ev.To)
		w.From, w.To = &from, &to
	}
	return w
}

// Totals are the server's request-level counters, classified exactly as the
// replay client's tally classifies outcomes — which is what makes the
// loopback e2e check meaningful: both ends count independently from the
// same outcome stream, and any wire loss or decode skew breaks the
// equality.
type Totals struct {
	JoinsAccepted       uint64 `json:"joins_accepted"`
	JoinsRejected       uint64 `json:"joins_rejected"`
	Leaves              uint64 `json:"leaves"`
	ViewChanges         uint64 `json:"view_changes"`
	ViewChangesRejected uint64 `json:"view_changes_rejected"`
	MigrationsLanded    uint64 `json:"migrations_landed"`
	MigrationsBounced   uint64 `json:"migrations_bounced"`
	Requests            uint64 `json:"requests"`
	Batches             uint64 `json:"batches"`
}

// HeapStats is the process-level memory health of the node: live heap and
// GC pressure, so an operator watching /metricz sees the bytes/viewer
// trajectory of a running node, not just its admission counters.
type HeapStats struct {
	// HeapAllocBytes is the live heap after the most recent GC grew it;
	// divided by the overlay's viewer count it is the node's bytes/viewer.
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`
	HeapObjects    uint64  `json:"heap_objects"`
	NumGC          uint32  `json:"num_gc"`
	GCPauseTotalMs float64 `json:"gc_pause_total_ms"`
	LastGCPauseMs  float64 `json:"last_gc_pause_ms"`
}

// Metrics is the /metricz body: the cheap overlay counter snapshot (the
// SampleStats path — no sorted CDFs on the request path) plus the server's
// outcome totals and the process heap health.
// Latency is the since-start per-op table reduced from the telemetry
// histograms, present only while telemetry is enabled — it is what lets a
// remote replay print the same exit table a local run computes from its
// own collector.
type Metrics struct {
	Overlay workload.Counters    `json:"overlay"`
	Totals  Totals               `json:"totals"`
	Heap    HeapStats            `json:"heap"`
	Latency []workload.OpLatency `json:"latency,omitempty"`
}

// WireSlowOp is one flight-recorder entry on the wire. Durations are
// nanoseconds; Phases lists only segments that accumulated time.
type WireSlowOp struct {
	Seq      uint64           `json:"seq"`
	Op       string           `json:"op"`
	Viewer   string           `json:"viewer,omitempty"`
	Region   int              `json:"region"`
	Outcome  string           `json:"outcome"`
	TotalNs  int64            `json:"total_ns"`
	PhasesNs map[string]int64 `json:"phases_ns,omitempty"`
	At       time.Time        `json:"at"`
}

// SlowOpsResponse is the /debug/slowops body: the ring's current contents,
// oldest first, plus the capture bar and the all-time capture count.
type SlowOpsResponse struct {
	Enabled     bool         `json:"enabled"`
	ThresholdNs int64        `json:"threshold_ns"`
	Seen        uint64       `json:"seen"`
	SlowOps     []WireSlowOp `json:"slow_ops"`
}

// ToWireSlowOp converts a flight-recorder entry to its wire form.
func ToWireSlowOp(e telemetry.SlowOp) WireSlowOp {
	w := WireSlowOp{
		Seq:     e.Seq,
		Op:      e.Op.String(),
		Viewer:  e.Viewer,
		Region:  e.Region,
		Outcome: e.Outcome.String(),
		TotalNs: int64(e.Total),
		At:      e.At,
	}
	for p, d := range e.Phases {
		if d > 0 {
			if w.PhasesNs == nil {
				w.PhasesNs = make(map[string]int64, len(e.Phases))
			}
			w.PhasesNs[telemetry.Phase(p).String()] = int64(d)
		}
	}
	return w
}

// Health is the /healthz body.
type Health struct {
	Status string `json:"status"` // "ok" | "draining"
}
