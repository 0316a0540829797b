package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"telecast/internal/httpapi"
	"telecast/internal/httpapi/client"
	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/trace"
	"telecast/internal/workload"
)

// stub is an httptest server speaking the op endpoints from a script: a
// request's viewer ID names the WireError it fails with (none when the ID
// is no key of fails), and /v1/batch answers in request order with each
// outcome's Region set to its index, dropping the last outcome when short
// is set.
type stub struct {
	fails map[string]httpapi.WireError
	short bool
}

func (s *stub) outcome(i int, wr httpapi.WireRequest) httpapi.WireOutcome {
	o := httpapi.WireOutcome{ID: wr.ID, Region: i, Admitted: true}
	if we, ok := s.fails[wr.ID]; ok {
		o.Admitted = false
		o.Error = &we
	}
	return o
}

func (s *stub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Path == httpapi.PathBatch {
		var br httpapi.BatchRequest
		if err := httpapi.DecodeBatchRequest(body, &br); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := httpapi.BatchResponse{Outcomes: []httpapi.WireOutcome{}}
		for i, wr := range br.Requests {
			resp.Outcomes = append(resp.Outcomes, s.outcome(i, wr))
		}
		if s.short {
			resp.Outcomes = resp.Outcomes[:len(resp.Outcomes)-1]
		}
		_, _ = w.Write(httpapi.AppendBatchResponse(nil, &resp))
		return
	}
	var wr httpapi.WireRequest
	if err := httpapi.DecodeWireRequest(body, &wr); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if we, ok := s.fails[wr.ID]; ok {
		w.WriteHeader(httpapi.StatusFor(we.Code))
		_, _ = w.Write(httpapi.AppendWireError(nil, &we))
		return
	}
	o := s.outcome(0, wr)
	_, _ = w.Write(httpapi.AppendWireOutcome(nil, &o))
}

// codeCases lists every wire code with the sentinel the client rebuilds
// for it; the codes without one keep only the code.
var codeCases = []struct {
	code     string
	sentinel error
}{
	{httpapi.CodeViewerExists, session.ErrViewerExists},
	{httpapi.CodeUnknownViewer, session.ErrUnknownViewer},
	{httpapi.CodeMigrating, session.ErrMigrating},
	{httpapi.CodeMatrixExhausted, session.ErrMatrixExhausted},
	{httpapi.CodeUnknownRegion, session.ErrUnknownRegion},
	{httpapi.CodeRejected, session.ErrRejected},
	{httpapi.CodeCanceled, context.Canceled},
	{httpapi.CodeBadRequest, nil},
	{httpapi.CodeInternal, nil},
	{httpapi.CodeTooLarge, nil},
}

// TestCodesRoundTrip sends one request per wire code through Do and all of
// them through one Exec, and checks that each error comes back carrying its
// code and matching its sentinel through errors.Is, and that a rejection
// rebuilds the *session.RejectionError with its viewer and reason.
func TestCodesRoundTrip(t *testing.T) {
	s := &stub{fails: map[string]httpapi.WireError{}}
	var reqs []workload.Request
	for _, tc := range codeCases {
		we := httpapi.WireError{Code: tc.code, Message: "stub: " + tc.code}
		if tc.code == httpapi.CodeRejected {
			we.Viewer = "v-rejected"
			we.Reason = uint8(session.ReasonDelayBound)
		}
		s.fails[tc.code] = we
		reqs = append(reqs, workload.Request{Kind: workload.EventJoin, ID: model.ViewerID(tc.code), InboundMbps: 12})
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	check := func(t *testing.T, code string, sentinel error, err error) {
		t.Helper()
		if got := client.CodeOf(err); got != code {
			t.Fatalf("CodeOf(%v) = %q, want %q", err, got, code)
		}
		if sentinel != nil && !errors.Is(err, sentinel) {
			t.Fatalf("%v does not match %v", err, sentinel)
		}
		if err.Error() != "stub: "+code {
			t.Fatalf("message %q, want the server's", err.Error())
		}
		if code != httpapi.CodeRejected {
			return
		}
		var rej *session.RejectionError
		if !errors.As(err, &rej) {
			t.Fatalf("%v: errors.As found no *RejectionError", err)
		}
		if rej.Viewer != "v-rejected" || rej.Reason != session.ReasonDelayBound {
			t.Fatalf("rejection rebuilt as {%s %v}, want {v-rejected %v}", rej.Viewer, rej.Reason, session.ReasonDelayBound)
		}
	}
	for i, tc := range codeCases {
		t.Run("Do/"+tc.code, func(t *testing.T) {
			o, err := cl.Do(ctx, reqs[i])
			if err == nil {
				t.Fatalf("outcome %+v, want an error", o)
			}
			check(t, tc.code, tc.sentinel, err)
		})
	}
	outs, err := cl.Exec(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range codeCases {
		t.Run("Exec/"+tc.code, func(t *testing.T) {
			if outs[i].Err == nil {
				t.Fatalf("outcome %+v, want an error", outs[i])
			}
			check(t, tc.code, tc.sentinel, outs[i].Err)
		})
	}
}

// TestExecOrderAndCount checks that batch outcomes come back in request
// order — against the stub, whose Region is each outcome's index, and
// against the real server, whose outcomes carry their viewers — and that an
// answer short of one outcome is reported, not padded.
func TestExecOrderAndCount(t *testing.T) {
	reqs := make([]workload.Request, 64)
	for i := range reqs {
		reqs[i] = workload.Request{Kind: workload.EventJoin, ID: model.ViewerID(fmt.Sprintf("v%02d", 63-i)), InboundMbps: 12, OutboundMbps: 4, ViewAngle: float64(i)}
	}
	// Half of them also leave in the same batch, so the answer mixes kinds.
	for i := 0; i < 32; i++ {
		reqs = append(reqs, workload.Request{Kind: workload.EventLeave, ID: reqs[2*i].ID})
	}
	ctx := context.Background()

	s := &stub{}
	ts := httptest.NewServer(s)
	defer ts.Close()
	outs, err := client.New(ts.URL).Exec(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.ID != reqs[i].ID || o.Region != i {
			t.Fatalf("stub outcome %d is {%s region %d}, want {%s region %d}", i, o.ID, o.Region, reqs[i].ID, i)
		}
	}
	s.short = true
	if outs, err := client.New(ts.URL).Exec(ctx, reqs); err == nil || !strings.Contains(err.Error(), "outcomes") {
		t.Fatalf("short answer: outcomes %d, err %v; want a count mismatch error", len(outs), err)
	}

	live := liveServer(t)
	outs, err = client.New(live.URL).Exec(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(reqs) {
		t.Fatalf("%d outcomes for %d requests", len(outs), len(reqs))
	}
	for i, o := range outs {
		if o.ID != reqs[i].ID {
			t.Fatalf("outcome %d is for %s, want %s", i, o.ID, reqs[i].ID)
		}
	}
}

// TestUndecodableAnswers checks the two ways an answer can fail to decode:
// a non-200 without a structured error body, and a 200 that is not an
// outcome.
func TestUndecodableAnswers(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == httpapi.PathBatch {
			_, _ = w.Write([]byte(`{"outcomes":[`))
			return
		}
		http.Error(w, "upstream gone", http.StatusBadGateway)
	}))
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()
	rq := workload.Request{Kind: workload.EventLeave, ID: "v1"}
	if _, err := cl.Do(ctx, rq); err == nil || !strings.Contains(err.Error(), "unexpected status 502") || client.CodeOf(err) != "" {
		t.Fatalf("plain-text 502: got %v", err)
	}
	if _, err := cl.Exec(ctx, []workload.Request{rq}); err == nil || !strings.Contains(err.Error(), "decode") {
		t.Fatalf("truncated batch answer: got %v", err)
	}
}

// TestRequestBytesMatchMarshal pins the request bodies Do and Exec send to
// the bytes json.Marshal writes for the same wire values, so the codec
// changed nothing a server sees.
func TestRequestBytesMatchMarshal(t *testing.T) {
	var mu sync.Mutex // the handler's goroutine appends, the test reads
	var got [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		got = append(got, body)
		mu.Unlock()
		if r.URL.Path == httpapi.PathBatch {
			_, _ = w.Write([]byte(`{"outcomes":[{"id":"a","region":0},{"id":"b","region":1}]}`))
			return
		}
		_, _ = w.Write([]byte(`{"id":"a","region":0}`))
	}))
	defer ts.Close()
	reqs := []workload.Request{
		{Kind: workload.EventJoin, ID: "a", InboundMbps: 12, OutboundMbps: 0.5, ViewAngle: 1.5707963267948966, Region: session.InRegion(2)},
		{Kind: workload.EventMigrate, ID: "b<&>", Cause: "mobility", DepartOnReject: true},
	}
	cl := client.New(ts.URL)
	if _, err := cl.Do(context.Background(), reqs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	one, err := json.Marshal(httpapi.ToWireRequest(reqs[0]))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := json.Marshal(httpapi.BatchRequest{Requests: []httpapi.WireRequest{httpapi.ToWireRequest(reqs[0]), httpapi.ToWireRequest(reqs[1])}})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, want := range [][]byte{one, batch} {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("request %d body:\n got  %q\n want %q", i, got[i], want)
		}
	}
}

func liveServer(t *testing.T) *httptest.Server {
	t.Helper()
	producers, err := model.NewSession(
		model.NewRingSite("A", 8, 0.25, 10),
		model.NewRingSite("B", 8, 0.25, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := trace.GenerateLatencyMatrix(trace.DefaultLatencyConfig(128, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := session.NewController(producers, lat)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.NewServer(ctrl, producers, 0).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctrl.Close()
	})
	return ts
}
