package httpapi_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"telecast/internal/httpapi"
	"telecast/internal/httpapi/client"
	"telecast/internal/model"
	"telecast/internal/workload"
)

// TestBodyLimit pins the op endpoints' read bound: a body of MaxBodyBytes
// is read, one byte more is refused with 413 and CodeTooLarge — declared
// up front or discovered while streaming — and an ordinary 64-op batch
// passes untouched.
func TestBodyLimit(t *testing.T) {
	ts, _, api := newTestServer(t, 200)
	h := api.Handler()

	// A valid empty batch padded with trailing whitespace, which the
	// decoder ignores, to exactly n bytes.
	padded := func(n int) []byte {
		b := bytes.Repeat([]byte{' '}, n)
		copy(b, `{"requests":[]}`)
		return b
	}
	serve := func(path string, body io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		return rec
	}
	if rec := serve(httpapi.PathBatch, bytes.NewReader(padded(httpapi.MaxBodyBytes))); rec.Code != http.StatusOK {
		t.Fatalf("batch of exactly MaxBodyBytes: status %d, body %q", rec.Code, rec.Body.Bytes())
	}
	over := padded(httpapi.MaxBodyBytes + 1)
	for _, tc := range []struct {
		name string
		path string
		body io.Reader
	}{
		// httptest.NewRequest declares the length of a *bytes.Reader and
		// leaves any other reader's unknown.
		{"batch/declared", httpapi.PathBatch, bytes.NewReader(over)},
		{"batch/streamed", httpapi.PathBatch, struct{ io.Reader }{bytes.NewReader(over)}},
		{"join/streamed", httpapi.PathJoin, struct{ io.Reader }{bytes.NewReader(over)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := serve(tc.path, tc.body)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413", rec.Code)
			}
			var we httpapi.WireError
			if err := httpapi.DecodeWireError(rec.Body.Bytes(), &we); err != nil {
				t.Fatalf("error body %q: %v", rec.Body.Bytes(), err)
			}
			if we.Code != httpapi.CodeTooLarge {
				t.Fatalf("code %q, want %q", we.Code, httpapi.CodeTooLarge)
			}
		})
	}

	reqs := make([]workload.Request, 64)
	for i := range reqs {
		reqs[i] = workload.Request{Kind: workload.EventJoin, ID: model.ViewerID(fmt.Sprintf("v%02d", i)), InboundMbps: 12, OutboundMbps: 4, ViewAngle: float64(i)}
	}
	outs, err := client.New(ts.URL).Exec(context.Background(), reqs)
	if err != nil {
		t.Fatalf("64-op batch: %v", err)
	}
	for i, o := range outs {
		if o.ID != reqs[i].ID || o.Err != nil {
			t.Fatalf("64-op batch outcome %d: %+v", i, o)
		}
	}
}

// stalledBody stands in for a client that sent its headers and then
// stalled: its first Read reports how much the process had allocated by
// then and blocks until released, then fails.
type stalledBody struct {
	reached chan<- uint64
	release <-chan struct{}
}

func (s stalledBody) Read([]byte) (int, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	select {
	case s.reached <- ms.TotalAlloc:
	default:
	}
	<-s.release
	return 0, io.ErrUnexpectedEOF
}

// TestStalledBodyNotPreallocated pins that a declared Content-Length
// reserves memory only up to a small cap before any body byte arrives: a
// request declaring MaxBodyBytes that then stalls must not cost the server
// MaxBodyBytes while it waits.
func TestStalledBodyNotPreallocated(t *testing.T) {
	_, _, api := newTestServer(t, 200)
	h := api.Handler()
	for name, path := range map[string]string{"batch": httpapi.PathBatch, "join": httpapi.PathJoin} {
		t.Run(name, func(t *testing.T) {
			reached, release := make(chan uint64, 1), make(chan struct{})
			req := httptest.NewRequest(http.MethodPost, path, stalledBody{reached, release})
			req.ContentLength = httpapi.MaxBodyBytes
			rec := httptest.NewRecorder()
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			done := make(chan struct{})
			go func() {
				defer close(done)
				h.ServeHTTP(rec, req)
			}()
			grown := <-reached - before.TotalAlloc
			close(release)
			<-done
			if grown >= httpapi.MaxBodyBytes/4 {
				t.Errorf("allocated %d bytes before the first body byte of a request declaring %d", grown, httpapi.MaxBodyBytes)
			}
			if rec.Code != http.StatusBadRequest {
				t.Errorf("stalled then broken body: status %d, want 400", rec.Code)
			}
		})
	}
}
