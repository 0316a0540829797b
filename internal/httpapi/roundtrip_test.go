package httpapi_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"telecast/internal/httpapi"
	"telecast/internal/httpapi/client"
	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/trace"
	"telecast/internal/workload"
)

// newTestServer spins up a controller behind the HTTP surface. The producer
// shape matches the demo binary (2 sites × 8 streams at 0.25 Mbps) so a
// 12 Mbps viewer can accept a full view.
func newTestServer(t *testing.T, matrixSize int, opts ...session.Option) (*httptest.Server, *session.Controller, *httpapi.Server) {
	t.Helper()
	producers, err := model.NewSession(
		model.NewRingSite("A", 8, 0.25, 10),
		model.NewRingSite("B", 8, 0.25, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := trace.GenerateLatencyMatrix(trace.DefaultLatencyConfig(matrixSize, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := session.NewController(producers, lat, opts...)
	if err != nil {
		t.Fatal(err)
	}
	api := httpapi.NewServer(ctrl, producers, 0)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctrl.Close()
	})
	return ts, ctrl, api
}

// TestErrorRoundTrip proves every sentinel and every RejectionError reason
// survives encode → wire codec → decode and still matches with errors.Is /
// errors.As — the property the replay client's outcome handling depends on.
func TestErrorRoundTrip(t *testing.T) {
	reasons := []session.RejectReason{
		session.ReasonCDNEgress,
		session.ReasonDelayBound,
		session.ReasonDegreeExhausted,
		session.ReasonInboundBound,
	}
	cases := []struct {
		name       string
		in         error
		sentinel   error
		wantCode   string
		wantStatus int
	}{
		{"viewer-exists", session.ErrViewerExists, session.ErrViewerExists, httpapi.CodeViewerExists, http.StatusConflict},
		{"unknown-viewer", session.ErrUnknownViewer, session.ErrUnknownViewer, httpapi.CodeUnknownViewer, http.StatusNotFound},
		{"migrating", session.ErrMigrating, session.ErrMigrating, httpapi.CodeMigrating, http.StatusConflict},
		{"matrix-exhausted", session.ErrMatrixExhausted, session.ErrMatrixExhausted, httpapi.CodeMatrixExhausted, http.StatusServiceUnavailable},
		{"unknown-region", session.ErrUnknownRegion, session.ErrUnknownRegion, httpapi.CodeUnknownRegion, http.StatusBadRequest},
		{"canceled", context.Canceled, context.Canceled, httpapi.CodeCanceled, http.StatusServiceUnavailable},
		// An over-long body has no session sentinel; the client keeps its code.
		{"too-large", fmt.Errorf("read body: %w", &http.MaxBytesError{Limit: httpapi.MaxBodyBytes}), nil, httpapi.CodeTooLarge, http.StatusRequestEntityTooLarge},
	}
	for _, r := range reasons {
		cases = append(cases, struct {
			name       string
			in         error
			sentinel   error
			wantCode   string
			wantStatus int
		}{
			name:       "rejected/" + r.String(),
			in:         &session.RejectionError{Viewer: "v42", Reason: r},
			sentinel:   session.ErrRejected,
			wantCode:   httpapi.CodeRejected,
			wantStatus: http.StatusUnprocessableEntity,
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			we := httpapi.EncodeError(tc.in)
			if we.Code != tc.wantCode {
				t.Fatalf("encode %v: code %q, want %q", tc.in, we.Code, tc.wantCode)
			}
			if got := httpapi.StatusFor(we.Code); got != tc.wantStatus {
				t.Fatalf("status for %q: %d, want %d", we.Code, got, tc.wantStatus)
			}
			var back httpapi.WireError
			if err := httpapi.DecodeWireError(httpapi.AppendWireError(nil, we), &back); err != nil {
				t.Fatal(err)
			}
			out := client.DecodeError(&back)
			if tc.sentinel != nil && !errors.Is(out, tc.sentinel) {
				t.Fatalf("decoded %v does not match sentinel %v", out, tc.sentinel)
			}
			var want *session.RejectionError
			if errors.As(tc.in, &want) {
				var got *session.RejectionError
				if !errors.As(out, &got) {
					t.Fatalf("decoded %v: errors.As found no *RejectionError", out)
				}
				if got.Viewer != want.Viewer || got.Reason != want.Reason {
					t.Fatalf("rejection round trip: got {%s %v}, want {%s %v}",
						got.Viewer, got.Reason, want.Viewer, want.Reason)
				}
			}
			if client.CodeOf(out) != tc.wantCode {
				t.Fatalf("CodeOf(%v) = %q, want %q", out, client.CodeOf(out), tc.wantCode)
			}
		})
	}
}

// TestErrorRoundTripOverWire drives representative failures through the
// real server and asserts the client sees typed errors end to end.
func TestErrorRoundTripOverWire(t *testing.T) {
	ts, _, _ := newTestServer(t, 64)
	cl := client.New(ts.URL)
	ctx := context.Background()

	if _, err := cl.Do(ctx, workload.Request{Kind: workload.EventLeave, ID: "ghost"}); !errors.Is(err, session.ErrUnknownViewer) {
		t.Fatalf("leave of unknown viewer: got %v, want ErrUnknownViewer", err)
	}

	join := workload.Request{Kind: workload.EventJoin, ID: "v1", InboundMbps: 12, OutboundMbps: 4}
	if _, err := cl.Do(ctx, join); err != nil {
		t.Fatalf("first join: %v", err)
	}
	if _, err := cl.Do(ctx, join); !errors.Is(err, session.ErrViewerExists) {
		t.Fatalf("duplicate join: got %v, want ErrViewerExists", err)
	}

	if _, err := cl.Do(ctx, workload.Request{
		Kind: workload.EventMigrate, ID: "v1",
		Region: session.InRegion(trace.Region(99)),
	}); !errors.Is(err, session.ErrUnknownRegion) {
		t.Fatalf("migrate to bogus region: got %v, want ErrUnknownRegion", err)
	}

	// Batched outcomes carry the same typed errors as data.
	outs, err := cl.Exec(ctx, []workload.Request{
		{Kind: workload.EventLeave, ID: "ghost"},
		{Kind: workload.EventLeave, ID: "v1"},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if !errors.Is(outs[0].Err, session.ErrUnknownViewer) {
		t.Fatalf("batch outcome 0: got %v, want ErrUnknownViewer", outs[0].Err)
	}
	if outs[1].Err != nil || !outs[1].Departed {
		t.Fatalf("batch outcome 1: err %v departed %v, want clean departure", outs[1].Err, outs[1].Departed)
	}
}
