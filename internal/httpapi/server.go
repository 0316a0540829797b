package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/telemetry"
	"telecast/internal/workload"
)

// Server hosts one session.Controller behind the HTTP surface. All four
// operation endpoints dispatch through the same workload.ControlPlane the
// in-process executor uses, so the wire path and the function-call path
// share one vocabulary and one classification of outcomes.
type Server struct {
	ctrl  *session.Controller
	plane workload.ControlPlane
	mux   *http.ServeMux

	totals   totals
	draining atomic.Bool
	done     chan struct{} // closed by Drain; event feeds exit on it
	drainOne sync.Once
}

// totals counts outcomes with the replay tally's classification (see
// Totals). Atomics, not a mutex: batches from concurrent bins land here.
type totals struct {
	joinsAccepted, joinsRejected        atomic.Uint64
	leaves, viewChanges, viewChangesRej atomic.Uint64
	migrationsLanded, migrationsBounced atomic.Uint64
	requests, batches                   atomic.Uint64
}

// NewServer wraps a controller. producers is the producer session views are
// composed against (the wire carries view angles, not views); maxParallel
// bounds the view-change worker pool (≤0 means the plane's default).
func NewServer(ctrl *session.Controller, producers *model.Session, maxParallel int) *Server {
	s := &Server{
		ctrl:  ctrl,
		plane: workload.NewLocalPlane(ctrl, producers, maxParallel),
		done:  make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST "+PathBatch, s.handleBatch)
	s.mux.HandleFunc("POST "+PathJoin, s.single(workload.EventJoin))
	s.mux.HandleFunc("POST "+PathLeave, s.single(workload.EventLeave))
	s.mux.HandleFunc("POST "+PathView, s.single(workload.EventViewChange))
	s.mux.HandleFunc("POST "+PathMigrate, s.single(workload.EventMigrate))
	s.mux.HandleFunc("GET "+PathEvents, s.handleEvents)
	s.mux.HandleFunc("GET "+PathHealthz, s.handleHealthz)
	s.mux.HandleFunc("GET "+PathMetricz, s.handleMetricz)
	s.mux.HandleFunc("GET "+PathMetrics, s.handleMetrics)
	s.mux.HandleFunc("GET "+PathSlowOps, s.handleSlowOps)
	return s
}

// Handler is the server's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain begins a graceful shutdown: /healthz flips to draining (load
// balancers stop routing here) and every streaming feed terminates so
// http.Server.Shutdown — which waits for active handlers — can finish once
// the in-flight batches settle. Safe to call more than once.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.drainOne.Do(func() { close(s.done) })
}

// Metrics snapshots the /metricz body.
func (s *Server) Metrics() Metrics {
	counters, _ := s.plane.Counters(context.Background())
	var latency []workload.OpLatency
	if tel := s.ctrl.Telemetry(); tel != nil && tel.Enabled() {
		latency = workload.LatencyFromTelemetry(telemetry.Snapshot{}, tel.Snapshot())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := HeapStats{
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		HeapObjects:    ms.HeapObjects,
		NumGC:          ms.NumGC,
		GCPauseTotalMs: float64(ms.PauseTotalNs) / 1e6,
	}
	if ms.NumGC > 0 {
		heap.LastGCPauseMs = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e6
	}
	return Metrics{
		Overlay: counters,
		Heap:    heap,
		Latency: latency,
		Totals: Totals{
			JoinsAccepted:       s.totals.joinsAccepted.Load(),
			JoinsRejected:       s.totals.joinsRejected.Load(),
			Leaves:              s.totals.leaves.Load(),
			ViewChanges:         s.totals.viewChanges.Load(),
			ViewChangesRejected: s.totals.viewChangesRej.Load(),
			MigrationsLanded:    s.totals.migrationsLanded.Load(),
			MigrationsBounced:   s.totals.migrationsBounced.Load(),
			Requests:            s.totals.requests.Load(),
			Batches:             s.totals.batches.Load(),
		},
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// MaxBodyBytes caps the body an op endpoint reads; a longer one is answered
// 413 with CodeTooLarge. 16 MiB holds some 80 000 requests of 200 bytes (a
// migration with every field set), more viewers than a latency matrix
// admits at once.
const MaxBodyBytes = 16 << 20

// readBody reads r's body into buf in one pass, bounded by MaxBodyBytes. A
// failure comes back as the error body to answer: CodeTooLarge past the
// bound, CodeBadRequest otherwise.
func readBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) *WireError {
	n := r.ContentLength
	if n > MaxBodyBytes {
		return EncodeError(&http.MaxBytesError{Limit: MaxBodyBytes})
	}
	if err := ReadBody(buf, http.MaxBytesReader(w, r.Body, MaxBodyBytes), n); err != nil {
		we := EncodeError(fmt.Errorf("read body: %w", err))
		if we.Code == CodeInternal {
			we.Code = CodeBadRequest
		}
		return we
	}
	return nil
}

// respond sends an encoded body with its length, in one Write.
func respond(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, we *WireError) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	buf.Write(AppendWireError(buf.AvailableBuffer(), we))
	respond(w, StatusFor(we.Code), buf.Bytes())
}

func badRequest(w http.ResponseWriter, err error) {
	writeError(w, &WireError{Code: CodeBadRequest, Message: err.Error()})
}

// count folds one executed outcome into the totals, mirroring the replay
// tally: joins split accepted/rejected, view changes count executions and
// refusals separately, migrations classify by where the viewer ended up.
func (s *Server) count(kind workload.EventKind, o workload.Outcome) {
	s.totals.requests.Add(1)
	switch kind {
	case workload.EventJoin:
		if o.Err == nil {
			s.totals.joinsAccepted.Add(1)
		} else if errors.Is(o.Err, session.ErrRejected) {
			s.totals.joinsRejected.Add(1)
		}
	case workload.EventLeave:
		if o.Err == nil {
			s.totals.leaves.Add(1)
		}
	case workload.EventViewChange:
		if o.Err == nil || errors.Is(o.Err, session.ErrRejected) {
			s.totals.viewChanges.Add(1)
			if !o.Admitted {
				s.totals.viewChangesRej.Add(1)
			}
		}
	case workload.EventMigrate:
		switch {
		case o.Landed:
			s.totals.migrationsLanded.Add(1)
		case o.Restored, o.Departed:
			s.totals.migrationsBounced.Add(1)
		}
	}
}

// handleBatch executes a mixed-kind batch and always answers 200 with
// per-outcome errors embedded — request-level failures are 400s, operation
// results are data.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	if we := readBody(w, r, buf); we != nil {
		writeError(w, we)
		return
	}
	var br BatchRequest
	if err := DecodeBatchRequest(buf.Bytes(), &br); err != nil {
		badRequest(w, fmt.Errorf("decode batch: %w", err))
		return
	}
	reqs := make([]workload.Request, len(br.Requests))
	for i, wr := range br.Requests {
		rq, err := wr.ToRequest(0)
		if err != nil {
			badRequest(w, fmt.Errorf("request %d: %w", i, err))
			return
		}
		reqs[i] = rq
	}
	// The in-flight gauge tracks request depth across concurrently executing
	// handlers — the server-side analogue of the pipeline's window depth.
	tel := s.ctrl.Telemetry()
	tel.AddInFlight(int64(len(reqs)))
	outs, err := s.plane.Exec(r.Context(), reqs)
	tel.AddInFlight(-int64(len(reqs)))
	if err != nil {
		writeError(w, EncodeError(err))
		return
	}
	s.totals.batches.Add(1)
	resp := BatchResponse{Outcomes: make([]WireOutcome, len(outs))}
	for i, o := range outs {
		s.count(reqs[i].Kind, o)
		resp.Outcomes[i] = ToWireOutcome(o)
	}
	// The response reuses the request's buffer: nothing decoded aliases it.
	buf.Reset()
	buf.Write(AppendBatchResponse(buf.AvailableBuffer(), &resp))
	respond(w, http.StatusOK, buf.Bytes())
}

// single builds the one-operation handler for a kind: one WireRequest in,
// one WireOutcome out, with operation errors promoted to HTTP statuses.
func (s *Server) single(kind workload.EventKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		buf := GetBuffer()
		defer PutBuffer(buf)
		if we := readBody(w, r, buf); we != nil {
			writeError(w, we)
			return
		}
		var wr WireRequest
		if err := DecodeWireRequest(buf.Bytes(), &wr); err != nil {
			badRequest(w, fmt.Errorf("decode request: %w", err))
			return
		}
		rq, err := wr.ToRequest(kind)
		if err != nil {
			badRequest(w, err)
			return
		}
		tel := s.ctrl.Telemetry()
		tel.AddInFlight(1)
		outs, err := s.plane.Exec(r.Context(), []workload.Request{rq})
		tel.AddInFlight(-1)
		if err != nil {
			writeError(w, EncodeError(err))
			return
		}
		o := outs[0]
		s.count(kind, o)
		if o.Err != nil {
			writeError(w, EncodeError(o.Err))
			return
		}
		wo := ToWireOutcome(o)
		buf.Reset()
		buf.Write(AppendWireOutcome(buf.AvailableBuffer(), &wo))
		respond(w, http.StatusOK, buf.Bytes())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, Health{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, Health{Status: "ok"})
}

func (s *Server) handleMetricz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handleMetrics renders the telemetry collector in Prometheus text format.
// The surface exists even while telemetry is disabled — the
// telecast_telemetry_enabled gauge says so, and every counter reads zero —
// so scrapers never see a 404 flap when the gate flips.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = telemetry.WritePrometheus(w, s.ctrl.Telemetry().Snapshot())
}

// handleSlowOps dumps the flight recorder: the slowest-recent-operations
// ring with per-phase breakdowns, oldest first.
func (s *Server) handleSlowOps(w http.ResponseWriter, _ *http.Request) {
	snap := s.ctrl.Telemetry().Snapshot()
	resp := SlowOpsResponse{
		Enabled:     snap.Enabled,
		ThresholdNs: int64(snap.SlowThreshold),
		Seen:        snap.SlowOpsSeen,
		SlowOps:     make([]WireSlowOp, len(snap.SlowOps)),
	}
	for i, e := range snap.SlowOps {
		resp.SlowOps[i] = ToWireSlowOp(e)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleEvents streams the controller's event feed: NDJSON by default,
// server-sent events with ?format=sse. Per-region order is the
// subscription's (Seq strictly increasing per region); events this
// subscriber misses surface as explicit feed-dropped notices, never as
// silent gaps.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &WireError{Code: CodeInternal, Message: "httpapi: streaming unsupported"})
		return
	}
	sse := r.URL.Query().Get("format") == "sse"
	sub := s.ctrl.Subscribe()
	defer sub.Close()

	h := w.Header()
	if sse {
		h.Set("Content-Type", "text/event-stream")
	} else {
		h.Set("Content-Type", "application/x-ndjson")
	}
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	var reported uint64
	writeLine := func(ev WireEvent) bool {
		buf, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "data: %s\n\n", buf)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", buf)
		}
		if err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	// deliver writes one event, preceded by a drop notice when this
	// subscriber has missed events since the last one — a consumer tracking
	// per-region Seq can attribute any gap instead of reading it as silence.
	deliver := func(ev session.Event) bool {
		if d := sub.Dropped(); d > reported {
			if !writeLine(WireEvent{Kind: KindFeedDropped, Dropped: d - reported}) {
				return false
			}
			reported = d
		}
		return writeLine(ToWireEvent(ev))
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			// Graceful drain: deliver what the pump already queued, then
			// end the stream.
			for {
				select {
				case ev, ok := <-sub.Events():
					if !ok || !deliver(ev) {
						return
					}
				default:
					return
				}
			}
		case ev, ok := <-sub.Events():
			if !ok || !deliver(ev) {
				return
			}
		}
	}
}
