// Package client is the wire side of the control-plane seam: an HTTP client
// for the httpapi server that implements workload.ControlPlane, so
// `telecast-node replay` (or any caller) can drive a catalog scenario over
// a socket exactly as the in-process executor would. Typed session errors
// decode back to errors.Is/errors.As-matchable values.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"telecast/internal/httpapi"
	"telecast/internal/model"
	"telecast/internal/workload"
)

// Client talks to one httpapi server. It is safe for concurrent use; the
// executor dispatches concurrent bins through one Client.
type Client struct {
	base string
	hc   *http.Client
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (timeouts, test
// transports).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// New returns a client for the server at base (e.g. "http://127.0.0.1:7465").
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

var _ workload.ControlPlane = (*Client)(nil)

// post sends an encoded op body. A 200 answer is handed to decode; any
// other status decodes the structured error body.
func (c *Client) post(ctx context.Context, path string, body []byte, decode func([]byte) error) (*httpapi.WireError, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", path, err)
	}
	defer resp.Body.Close()
	buf := httpapi.GetBuffer()
	defer httpapi.PutBuffer(buf)
	rerr := httpapi.ReadBody(buf, resp.Body, resp.ContentLength)
	if resp.StatusCode != http.StatusOK {
		var we httpapi.WireError
		if rerr != nil || httpapi.DecodeWireError(buf.Bytes(), &we) != nil || we.Code == "" {
			return nil, fmt.Errorf("client: %s: unexpected status %d", path, resp.StatusCode)
		}
		return &we, nil
	}
	if rerr != nil {
		return nil, fmt.Errorf("client: read %s: %w", path, rerr)
	}
	if err := decode(buf.Bytes()); err != nil {
		return nil, fmt.Errorf("client: decode %s: %w", path, err)
	}
	return nil, nil
}

// marshalForm drops the encoder's trailing newline: request bodies go out
// as json.Marshal writes them, as they always have.
func marshalForm(body []byte) []byte { return body[:len(body)-1] }

// requestBytes estimates one encoded request, to size a body in one
// allocation.
const requestBytes = 128

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var we httpapi.WireError
		if body, err := io.ReadAll(resp.Body); err == nil && httpapi.DecodeWireError(body, &we) == nil && we.Code != "" {
			return DecodeError(&we)
		}
		return fmt.Errorf("client: %s: unexpected status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s: %w", path, err)
	}
	return nil
}

// toOutcome rebuilds the executor outcome, decoding the structured error
// back to its typed form.
func toOutcome(w httpapi.WireOutcome) workload.Outcome {
	return workload.Outcome{
		ID:       model.ViewerID(w.ID),
		Region:   w.Region,
		Admitted: w.Admitted,
		Landed:   w.Landed,
		Restored: w.Restored,
		Departed: w.Departed,
		Err:      DecodeError(w.Error),
	}
}

// Exec implements workload.ControlPlane over POST /v1/batch: the full
// request window ships as one wire batch and outcomes come back in input
// order with typed errors reconstructed.
func (c *Client) Exec(ctx context.Context, reqs []workload.Request) ([]workload.Outcome, error) {
	br := httpapi.BatchRequest{Requests: make([]httpapi.WireRequest, len(reqs))}
	for i, rq := range reqs {
		br.Requests[i] = httpapi.ToWireRequest(rq)
	}
	body, err := httpapi.AppendBatchRequest(make([]byte, 0, 16+requestBytes*len(reqs)), &br)
	if err != nil {
		return nil, fmt.Errorf("client: encode %s: %w", httpapi.PathBatch, err)
	}
	var resp httpapi.BatchResponse
	we, err := c.post(ctx, httpapi.PathBatch, marshalForm(body), func(b []byte) error {
		return httpapi.DecodeBatchResponse(b, &resp)
	})
	if err != nil {
		return nil, err
	}
	if we != nil {
		return nil, DecodeError(we)
	}
	if len(resp.Outcomes) != len(reqs) {
		return nil, fmt.Errorf("client: batch answered %d outcomes for %d requests", len(resp.Outcomes), len(reqs))
	}
	outs := make([]workload.Outcome, len(resp.Outcomes))
	for i, w := range resp.Outcomes {
		outs[i] = toOutcome(w)
	}
	return outs, nil
}

// Counters implements workload.ControlPlane via GET /metricz (the cheap
// counter path; no distributions cross the wire).
func (c *Client) Counters(ctx context.Context) (workload.Counters, error) {
	m, err := c.Metrics(ctx)
	return m.Overlay, err
}

// Metrics fetches the full /metricz body, including the server's outcome
// totals — what the e2e smoke compares against the replay's client-side
// tally.
func (c *Client) Metrics(ctx context.Context) (httpapi.Metrics, error) {
	var m httpapi.Metrics
	err := c.get(ctx, httpapi.PathMetricz, &m)
	return m, err
}

// MetricsText fetches the raw Prometheus text exposition from /metrics —
// the scrape surface, returned unparsed so callers can hand it to
// telemetry.ParseText (the obs-verify equality check) or a file.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+httpapi.PathMetrics, nil)
	if err != nil {
		return "", fmt.Errorf("client: %s: %w", httpapi.PathMetrics, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("client: %s: %w", httpapi.PathMetrics, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("client: %s: unexpected status %d", httpapi.PathMetrics, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: read %s: %w", httpapi.PathMetrics, err)
	}
	return string(body), nil
}

// SlowOps fetches the flight-recorder dump from /debug/slowops.
func (c *Client) SlowOps(ctx context.Context) (httpapi.SlowOpsResponse, error) {
	var resp httpapi.SlowOpsResponse
	err := c.get(ctx, httpapi.PathSlowOps, &resp)
	return resp, err
}

// Health fetches /healthz; a draining server answers with an error.
func (c *Client) Health(ctx context.Context) (httpapi.Health, error) {
	var h httpapi.Health
	err := c.get(ctx, httpapi.PathHealthz, &h)
	return h, err
}

// Do executes one operation through its single-operation endpoint. A non-OK
// answer decodes to the typed error; operation outcomes come back as data.
func (c *Client) Do(ctx context.Context, rq workload.Request) (workload.Outcome, error) {
	var path string
	switch rq.Kind {
	case workload.EventJoin:
		path = httpapi.PathJoin
	case workload.EventLeave:
		path = httpapi.PathLeave
	case workload.EventViewChange:
		path = httpapi.PathView
	case workload.EventMigrate:
		path = httpapi.PathMigrate
	default:
		return workload.Outcome{}, fmt.Errorf("client: unknown request kind %v", rq.Kind)
	}
	wr := httpapi.ToWireRequest(rq)
	body, err := httpapi.AppendWireRequest(make([]byte, 0, requestBytes), &wr)
	if err != nil {
		return workload.Outcome{}, fmt.Errorf("client: encode %s: %w", path, err)
	}
	var w httpapi.WireOutcome
	we, err := c.post(ctx, path, marshalForm(body), func(b []byte) error {
		return httpapi.DecodeWireOutcome(b, &w)
	})
	if err != nil {
		return workload.Outcome{}, err
	}
	if we != nil {
		return workload.Outcome{ID: rq.ID, Region: -1}, DecodeError(we)
	}
	return toOutcome(w), nil
}

// Subscribe opens the streamed event feed (NDJSON). Read items with Next
// until an error; io.EOF means the server closed the feed (drain or
// controller shutdown).
func (c *Client) Subscribe(ctx context.Context) (*Feed, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+httpapi.PathEvents, nil)
	if err != nil {
		return nil, fmt.Errorf("client: events: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: events: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("client: events: unexpected status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return &Feed{body: resp.Body, sc: sc}, nil
}

// Feed is an open event stream. Not safe for concurrent Next calls.
type Feed struct {
	body io.ReadCloser
	sc   *bufio.Scanner
}

// Next returns the next feed line: a session event or a feed-dropped
// notice. io.EOF reports an orderly end of stream.
func (f *Feed) Next() (httpapi.WireEvent, error) {
	for f.sc.Scan() {
		line := bytes.TrimSpace(f.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev httpapi.WireEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return httpapi.WireEvent{}, fmt.Errorf("client: decode event: %w", err)
		}
		return ev, nil
	}
	if err := f.sc.Err(); err != nil {
		return httpapi.WireEvent{}, err
	}
	return httpapi.WireEvent{}, io.EOF
}

// Close terminates the feed.
func (f *Feed) Close() error { return f.body.Close() }
