package httpapi_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"telecast/internal/httpapi"
)

// The codec's oracle is the encoding/json path it replaced. Each decode
// target holds a codec decoder to json.NewDecoder(bytes.NewReader(data)).
// Decode: both fail, or both succeed with deeply equal values. The encode
// targets hold each Append function to json.NewEncoder(w).Encode, byte for
// byte, error for error. The seed corpus under testdata/fuzz has one entry
// per encoding/json quirk the codec reproduces; `go test` runs it as
// ordinary tests and `make fuzz-smoke` fuzzes each target briefly.

// decodeParity checks decode against encoding/json's Decoder on data and
// returns the decoded value when both succeeded.
func decodeParity[T any](t *testing.T, data []byte, decode func([]byte, *T) error) (T, bool) {
	t.Helper()
	var want, got T
	werr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	gerr := decode(data, &got)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%T from %q: encoding/json error %v, codec error %v", got, data, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("%T from %q:\nencoding/json %s\ncodec         %s", got, data, dump(want), dump(got))
	}
	return got, werr == nil
}

// dump renders a decoded value with pointers followed, for failure messages.
func dump(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(b)
}

// encodeParity checks an Append function against json.Encoder on v.
func encodeParity[T any](t *testing.T, v *T, enc func([]byte, *T) ([]byte, error)) {
	t.Helper()
	var want bytes.Buffer
	werr := json.NewEncoder(&want).Encode(v)
	prefix := []byte("prefix")
	got, gerr := enc(prefix, v)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%T %s: encoding/json error %v, codec error %v", *v, dump(v), werr, gerr)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%T: codec clobbered dst: %q", *v, got)
	}
	if got = got[len(prefix):]; werr == nil && !bytes.Equal(want.Bytes(), got) {
		t.Fatalf("%T encoding differs:\nencoding/json %q\ncodec         %q", *v, want.Bytes(), got)
	}
	if werr != nil && len(got) != 0 {
		t.Fatalf("%T: a failed encode appended %q", *v, got)
	}
}

// infallible adapts the Append functions that cannot fail.
func infallible[T any](enc func([]byte, *T) []byte) func([]byte, *T) ([]byte, error) {
	return func(dst []byte, v *T) ([]byte, error) { return enc(dst, v), nil }
}

func FuzzDecodeWireRequest(f *testing.F) {
	f.Add([]byte(`{"kind":"join","id":"v1","inbound_mbps":12,"outbound_mbps":4,"view_angle":90,"region":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeParity(t, data, httpapi.DecodeWireRequest)
	})
}

func FuzzDecodeBatchRequest(f *testing.F) {
	f.Add([]byte(`{"requests":[{"kind":"join","id":"v1","inbound_mbps":12},{"kind":"leave","id":"v2"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeParity(t, data, httpapi.DecodeBatchRequest)
	})
}

// FuzzDecodeBatchResponse also holds the WireOutcome and WireError
// decoders, which the client uses on single-op answers and error bodies.
func FuzzDecodeBatchResponse(f *testing.F) {
	f.Add([]byte(`{"outcomes":[{"id":"v1","region":0,"admitted":true},{"id":"v2","region":-1,"error":{"code":"rejected","message":"m","viewer":"v2","reason":2}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeParity(t, data, httpapi.DecodeBatchResponse)
		decodeParity(t, data, httpapi.DecodeWireOutcome)
		decodeParity(t, data, httpapi.DecodeWireError)
	})
}

// FuzzEncodeDecoded encodes whatever encoding/json decodes data into, for
// each of the five types.
func FuzzEncodeDecoded(f *testing.F) {
	f.Add([]byte(`{"id":"<a&b>","message":"x","inbound_mbps":1e-7}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		encodeDecoded(t, data, httpapi.AppendWireRequest)
		encodeDecoded(t, data, httpapi.AppendBatchRequest)
		encodeDecoded(t, data, infallible(httpapi.AppendWireOutcome))
		encodeDecoded(t, data, infallible(httpapi.AppendWireError))
		encodeDecoded(t, data, infallible(httpapi.AppendBatchResponse))
	})
}

func encodeDecoded[T any](t *testing.T, data []byte, enc func([]byte, *T) ([]byte, error)) {
	t.Helper()
	var v T
	if json.NewDecoder(bytes.NewReader(data)).Decode(&v) == nil {
		encodeParity(t, &v, enc)
	}
}

// FuzzEncodeValues reaches what no decoded value holds: invalid UTF-8 in
// strings, and NaN and infinite floats, which must fail as they do in
// encoding/json.
func FuzzEncodeValues(f *testing.F) {
	f.Add("v1", 12.5, 3)
	f.Fuzz(func(t *testing.T, s string, x float64, n int) {
		rq := httpapi.WireRequest{Kind: s, ID: s, InboundMbps: x, OutboundMbps: -x, ViewAngle: x / 3, Cause: s, DepartOnReject: n%2 == 0}
		if n%3 != 0 {
			rq.Region = &n
		}
		we := httpapi.WireError{Code: s, Message: s, Viewer: s, Reason: uint8(n)}
		o := httpapi.WireOutcome{ID: s, Region: n, Admitted: n%2 == 0, Landed: n%3 == 0, Restored: n%5 == 0, Departed: n%7 == 0}
		if n%4 != 0 {
			o.Error = &we
		}
		encodeParity(t, &rq, httpapi.AppendWireRequest)
		encodeParity(t, &httpapi.BatchRequest{Requests: []httpapi.WireRequest{rq, {ID: s}}}, httpapi.AppendBatchRequest)
		encodeParity(t, &o, infallible(httpapi.AppendWireOutcome))
		encodeParity(t, &we, infallible(httpapi.AppendWireError))
		encodeParity(t, &httpapi.BatchResponse{Outcomes: []httpapi.WireOutcome{o, {}}}, infallible(httpapi.AppendBatchResponse))
	})
}

// TestCodecEncodeTable pins the encoder against encoding/json on the values
// whose encodings have rules of their own.
func TestCodecEncodeTable(t *testing.T) {
	region := 3
	negRegion := -1
	ls, ps := string(rune(0x2028)), string(rune(0x2029))
	strs := []string{
		"", "v1", `<script>&"quoted"\`, "tab\tnew\nline\rcr\bbs\fff\x00\x1f\x7f",
		"line" + ls + "para" + ps, "bad\xffutf8\xed\xa0\x80", "caf\xc3\xa9 \xf0\x9f\x98\x80",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 12.5, 1e-6, 1e-7, 9.99e-7, 1.5e-300, 5e-324,
		1e20, 1e21, 123456789012345678901234.0, -1e21, math.MaxFloat64, 0.1 + 0.2,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, s := range strs {
		for _, x := range floats {
			rq := httpapi.WireRequest{Kind: s, ID: s, InboundMbps: x, OutboundMbps: x, ViewAngle: x, Cause: s}
			encodeParity(t, &rq, httpapi.AppendWireRequest)
		}
		we := httpapi.WireError{Code: s, Message: s, Viewer: s, Reason: 255}
		encodeParity(t, &we, infallible(httpapi.AppendWireError))
		encodeParity(t, &httpapi.WireOutcome{ID: s, Region: -7, Error: &we}, infallible(httpapi.AppendWireOutcome))
	}
	for _, br := range []httpapi.BatchRequest{
		{},
		{Requests: []httpapi.WireRequest{}},
		{Requests: []httpapi.WireRequest{{ID: "a", Region: &region, DepartOnReject: true}, {Kind: "leave", ID: "b", Region: &negRegion}}},
	} {
		encodeParity(t, &br, httpapi.AppendBatchRequest)
	}
	for _, resp := range []httpapi.BatchResponse{
		{},
		{Outcomes: []httpapi.WireOutcome{}},
		{Outcomes: []httpapi.WireOutcome{{ID: "a", Admitted: true, Landed: true, Restored: true, Departed: true}, {ID: "b", Error: &httpapi.WireError{}}}},
	} {
		encodeParity(t, &resp, infallible(httpapi.AppendBatchResponse))
	}
}
