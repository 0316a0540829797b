package httpapi_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"telecast/internal/httpapi"
	"telecast/internal/session"
)

// wireFixture is a 64-op /v1/batch round trip shaped like the benchmark's
// cycle schedule: joins at 12 Mbps in with a per-viewer out budget at one of
// three view angles, view changes and leaves, and answers carrying regions,
// admission flags and a few rejections.
func wireFixture() (httpapi.BatchRequest, httpapi.BatchResponse) {
	angles := [3]float64{0, math.Pi / 2, math.Pi}
	var br httpapi.BatchRequest
	var resp httpapi.BatchResponse
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("v%07d", 4096+i*37)
		rq := httpapi.WireRequest{ID: id}
		o := httpapi.WireOutcome{ID: id, Region: i % 4}
		switch {
		case i%4 < 2:
			rq.Kind, rq.InboundMbps, rq.OutboundMbps, rq.ViewAngle = "join", 12, float64(i%13), angles[i%3]
			o.Admitted = true
			if i%16 == 1 {
				o.Admitted = false
				o.Error = httpapi.EncodeError(&session.RejectionError{Viewer: "v", Reason: session.ReasonCDNEgress})
			}
		case i%4 == 2:
			rq.Kind, rq.ViewAngle = "view-change", angles[(i+1)%3]
			o.Admitted = true
		default:
			rq.Kind = "leave"
			o.Departed = true
		}
		br.Requests = append(br.Requests, rq)
		resp.Outcomes = append(resp.Outcomes, o)
	}
	return br, resp
}

var benchSink []byte

// BenchmarkWireCodec times each direction of a 64-op batch round trip
// through the codec and, as the baseline it replaced, through
// encoding/json's Encoder and Decoder. Encoders append to a reused buffer,
// as the server's pooled one is reused.
func BenchmarkWireCodec(b *testing.B) {
	br, resp := wireFixture()
	reqBody, err := httpapi.AppendBatchRequest(nil, &br)
	if err != nil {
		b.Fatal(err)
	}
	respBody := httpapi.AppendBatchResponse(nil, &resp)

	b.Run("codec/request-encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 2*len(reqBody))
		for b.Loop() {
			buf, _ = httpapi.AppendBatchRequest(buf[:0], &br)
		}
		benchSink = buf
	})
	b.Run("codec/request-decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var v httpapi.BatchRequest
			if err := httpapi.DecodeBatchRequest(reqBody, &v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec/response-encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 2*len(respBody))
		for b.Loop() {
			buf = httpapi.AppendBatchResponse(buf[:0], &resp)
		}
		benchSink = buf
	})
	b.Run("codec/response-decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var v httpapi.BatchResponse
			if err := httpapi.DecodeBatchResponse(respBody, &v); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("encoding-json/request-encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for b.Loop() {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(&br); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json/request-decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var v httpapi.BatchRequest
			if err := json.NewDecoder(bytes.NewReader(reqBody)).Decode(&v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json/response-encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for b.Loop() {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json/response-decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var v httpapi.BatchResponse
			if err := json.NewDecoder(bytes.NewReader(respBody)).Decode(&v); err != nil {
				b.Fatal(err)
			}
		}
	})
}
