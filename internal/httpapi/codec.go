package httpapi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The op-path codec: a reflection-free JSON encoder and decoder for the five
// types /v1/batch and the single-op endpoints carry — WireRequest,
// WireOutcome, WireError, BatchRequest and BatchResponse — used by the
// server and the client alike.
//
// The wire format is encoding/json's. Each Append function writes exactly
// the bytes json.NewEncoder(w).Encode(v) writes, trailing newline included;
// each Decode function accepts exactly the inputs
// json.NewDecoder(bytes.NewReader(data)).Decode(v) accepts and leaves v as
// it would: keys match case-insensitively (an exact match first, then
// Unicode simple folding), unknown keys are skipped whatever they hold,
// null leaves strings, numbers and bools untouched and clears pointers and
// slices, a repeated key decodes again into what the earlier one left, and
// bytes after the first value are ignored. The fuzz targets in
// codec_fuzz_test.go hold both halves to encoding/json.

// Append encoders. A float that is NaN or infinite has no JSON form; the
// encoders that carry floats then fail, as encoding/json does, and leave dst
// as it was.

// AppendWireRequest appends v's encoding and a newline to dst.
func AppendWireRequest(dst []byte, v *WireRequest) ([]byte, error) {
	b, err := appendWireRequest(dst, v)
	if err != nil {
		return dst, err
	}
	return append(b, '\n'), nil
}

// AppendBatchRequest appends v's encoding and a newline to dst.
func AppendBatchRequest(dst []byte, v *BatchRequest) ([]byte, error) {
	b := append(dst, `{"requests":`...)
	if v.Requests == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range v.Requests {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendWireRequest(b, &v.Requests[i]); err != nil {
				return dst, err
			}
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

// AppendWireOutcome appends v's encoding and a newline to dst.
func AppendWireOutcome(dst []byte, v *WireOutcome) []byte {
	return append(appendWireOutcome(dst, v), '\n')
}

// AppendWireError appends v's encoding and a newline to dst.
func AppendWireError(dst []byte, v *WireError) []byte {
	return append(appendWireError(dst, v), '\n')
}

// AppendBatchResponse appends v's encoding and a newline to dst.
func AppendBatchResponse(dst []byte, v *BatchResponse) []byte {
	b := append(dst, `{"outcomes":`...)
	if v.Outcomes == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range v.Outcomes {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendWireOutcome(b, &v.Outcomes[i])
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

func appendWireRequest(b []byte, v *WireRequest) ([]byte, error) {
	b = append(b, '{')
	if v.Kind != "" {
		b = append(b, `"kind":`...)
		b = appendString(b, v.Kind)
		b = append(b, ',')
	}
	b = append(b, `"id":`...)
	b = appendString(b, v.ID)
	var err error
	if b, err = appendFloatField(b, `,"inbound_mbps":`, v.InboundMbps); err != nil {
		return b, err
	}
	if b, err = appendFloatField(b, `,"outbound_mbps":`, v.OutboundMbps); err != nil {
		return b, err
	}
	if b, err = appendFloatField(b, `,"view_angle":`, v.ViewAngle); err != nil {
		return b, err
	}
	if v.Region != nil {
		b = append(b, `,"region":`...)
		b = strconv.AppendInt(b, int64(*v.Region), 10)
	}
	if v.Cause != "" {
		b = append(b, `,"cause":`...)
		b = appendString(b, v.Cause)
	}
	if v.DepartOnReject {
		b = append(b, `,"depart_on_reject":true`...)
	}
	return append(b, '}'), nil
}

func appendWireOutcome(b []byte, v *WireOutcome) []byte {
	b = append(b, `{"id":`...)
	b = appendString(b, v.ID)
	b = append(b, `,"region":`...)
	b = strconv.AppendInt(b, int64(v.Region), 10)
	if v.Admitted {
		b = append(b, `,"admitted":true`...)
	}
	if v.Landed {
		b = append(b, `,"landed":true`...)
	}
	if v.Restored {
		b = append(b, `,"restored":true`...)
	}
	if v.Departed {
		b = append(b, `,"departed":true`...)
	}
	if v.Error != nil {
		b = append(b, `,"error":`...)
		b = appendWireError(b, v.Error)
	}
	return append(b, '}')
}

func appendWireError(b []byte, v *WireError) []byte {
	b = append(b, `{"code":`...)
	b = appendString(b, v.Code)
	b = append(b, `,"message":`...)
	b = appendString(b, v.Message)
	if v.Viewer != "" {
		b = append(b, `,"viewer":`...)
		b = appendString(b, v.Viewer)
	}
	if v.Reason != 0 {
		b = append(b, `,"reason":`...)
		b = strconv.AppendUint(b, uint64(v.Reason), 10)
	}
	return append(b, '}')
}

// appendFloatField appends key and f, or nothing when f is zero (omitempty).
func appendFloatField(b []byte, key string, f float64) ([]byte, error) {
	if f == 0 {
		return b, nil
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("httpapi: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	b = append(b, key...)
	// encoding/json's float form: like %g, but 'f' between 1e-6 and 1e21
	// and an exponent without padding (e-7, not e-07).
	format := byte('f')
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	if format == 'f' && f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		// An integral float below 2^53 prints as its integer digits.
		return strconv.AppendInt(b, int64(f), 10), nil
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on: <, >
// and & are written as unicode escapes, as are control bytes without a
// short escape and U+2028 and U+2029, and each invalid UTF-8 byte becomes
// the escaped replacement character U+FFFD.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Decoders. Each reads the first JSON value of data into v.

// DecodeWireRequest decodes data into v.
func DecodeWireRequest(data []byte, v *WireRequest) error {
	d := decoder{data: data}
	if err := d.begin(); err != nil {
		return err
	}
	return d.wireRequest(v)
}

// DecodeBatchRequest decodes data into v.
func DecodeBatchRequest(data []byte, v *BatchRequest) error {
	d := decoder{data: data}
	if err := d.begin(); err != nil {
		return err
	}
	return d.batchRequest(v)
}

// DecodeWireOutcome decodes data into v.
func DecodeWireOutcome(data []byte, v *WireOutcome) error {
	d := decoder{data: data}
	if err := d.begin(); err != nil {
		return err
	}
	return d.wireOutcome(v)
}

// DecodeWireError decodes data into v.
func DecodeWireError(data []byte, v *WireError) error {
	d := decoder{data: data}
	if err := d.begin(); err != nil {
		return err
	}
	return d.wireError(v)
}

// DecodeBatchResponse decodes data into v.
func DecodeBatchResponse(data []byte, v *BatchResponse) error {
	d := decoder{data: data}
	if err := d.begin(); err != nil {
		return err
	}
	return d.batchResponse(v)
}

// maxDepth is encoding/json's nesting limit: a value nested deeper than
// this many objects and arrays is a syntax error there, so it is here.
const maxDepth = 10000

// errEmpty answers a body with no value in it.
var errEmpty = errors.New("httpapi: empty body")

// decoder is a single pass over one JSON value: it checks the syntax as it
// goes and stores each field it recognises. Value methods start at the
// value's first byte, with any whitespace before it already skipped.
type decoder struct {
	data  []byte
	off   int
	depth int
	// scratch holds a string or key whose escapes had to be decoded.
	scratch []byte
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("httpapi: invalid JSON at offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

func (d *decoder) skipSpace() {
	for d.off < len(d.data) {
		if c := d.data[d.off]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		d.off++
	}
}

// peek returns the byte at the read position, or 0 at the end of input.
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *decoder) begin() error {
	d.skipSpace()
	if d.off == len(d.data) {
		return errEmpty
	}
	return nil
}

// mismatch reports a value of the wrong JSON type for the field at hand.
func (d *decoder) mismatch(want string) error {
	if d.off == len(d.data) {
		return d.errorf("unexpected end of input")
	}
	return d.errorf("cannot decode %q into %s", d.data[d.off], want)
}

// literal consumes lit, one of true, false and null. What follows it is the
// enclosing container's to check.
func (d *decoder) literal(lit string) error {
	if end := d.off + len(lit); end > len(d.data) || string(d.data[d.off:end]) != lit {
		return d.errorf("invalid literal, want %s", lit)
	}
	d.off += len(lit)
	return nil
}

// enter consumes the '{' or '[' at the read position.
func (d *decoder) enter() error {
	d.depth++
	if d.depth > maxDepth {
		return d.errorf("exceeded max depth %d", maxDepth)
	}
	d.off++
	return nil
}

// next advances to the next member or element of the object or array being
// read, whose closing byte is end. It reports false, having consumed end,
// when there is none; first marks the call right after the opening byte.
func (d *decoder) next(first bool, end byte) (more bool, err error) {
	d.skipSpace()
	switch c := d.peek(); {
	case c == end:
		d.off++
		d.depth--
		return false, nil
	case first:
	case c == ',':
		d.off++
		d.skipSpace()
	default:
		return false, d.errorf("want ',' or %q", end)
	}
	return true, nil
}

// key advances to the next member of the object being read, like next, and
// returns its key unquoted, with the read position at the member's value.
// The key may alias scratch, so match it before reading the value.
func (d *decoder) key(first bool) (key []byte, more bool, err error) {
	if more, err = d.next(first, '}'); !more || err != nil {
		return nil, more, err
	}
	if d.peek() != '"' {
		return nil, false, d.errorf("want string key")
	}
	if key, err = d.str(); err != nil {
		return nil, false, err
	}
	d.skipSpace()
	if d.peek() != ':' {
		return nil, false, d.errorf("want ':' after object key")
	}
	d.off++
	d.skipSpace()
	return key, true, nil
}

// match returns the field name key selects, the way encoding/json picks
// it: an exact match, else one equal under Unicode simple case folding;
// "" when key names no field.
func match(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

var (
	wireRequestFields = []string{"kind", "id", "inbound_mbps", "outbound_mbps", "view_angle", "region", "cause", "depart_on_reject"}
	wireOutcomeFields = []string{"id", "region", "admitted", "landed", "restored", "departed", "error"}
	wireErrorFields   = []string{"code", "message", "viewer", "reason"}
)

// object reads an object or null into a struct; null leaves it as it is.
// member is called once per key with the read position at its value.
func (d *decoder) object(want string, member func(key []byte) error) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch(want)
	}
	if err := d.enter(); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.key(first)
		if err != nil || !more {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
	}
}

func (d *decoder) wireRequest(v *WireRequest) error {
	return d.object("WireRequest", func(key []byte) error {
		switch match(key, wireRequestFields) {
		case "kind":
			return d.stringField(&v.Kind)
		case "id":
			return d.stringField(&v.ID)
		case "inbound_mbps":
			return d.floatField(&v.InboundMbps)
		case "outbound_mbps":
			return d.floatField(&v.OutboundMbps)
		case "view_angle":
			return d.floatField(&v.ViewAngle)
		case "region":
			if d.peek() == 'n' {
				v.Region = nil
				return d.literal("null")
			}
			if v.Region == nil {
				v.Region = new(int)
			}
			return d.intField(v.Region)
		case "cause":
			return d.stringField(&v.Cause)
		case "depart_on_reject":
			return d.boolField(&v.DepartOnReject)
		}
		return d.skip()
	})
}

func (d *decoder) wireOutcome(v *WireOutcome) error {
	return d.object("WireOutcome", func(key []byte) error {
		switch match(key, wireOutcomeFields) {
		case "id":
			return d.stringField(&v.ID)
		case "region":
			return d.intField(&v.Region)
		case "admitted":
			return d.boolField(&v.Admitted)
		case "landed":
			return d.boolField(&v.Landed)
		case "restored":
			return d.boolField(&v.Restored)
		case "departed":
			return d.boolField(&v.Departed)
		case "error":
			if d.peek() == 'n' {
				v.Error = nil
				return d.literal("null")
			}
			if v.Error == nil {
				v.Error = new(WireError)
			}
			return d.wireError(v.Error)
		}
		return d.skip()
	})
}

func (d *decoder) wireError(v *WireError) error {
	return d.object("WireError", func(key []byte) error {
		switch match(key, wireErrorFields) {
		case "code":
			return d.stringField(&v.Code)
		case "message":
			return d.stringField(&v.Message)
		case "viewer":
			return d.stringField(&v.Viewer)
		case "reason":
			return d.uint8Field(&v.Reason)
		}
		return d.skip()
	})
}

func (d *decoder) batchRequest(v *BatchRequest) error {
	return d.object("BatchRequest", func(key []byte) error {
		if match(key, []string{"requests"}) == "" {
			return d.skip()
		}
		return sliceField(d, &v.Requests, (*decoder).wireRequest)
	})
}

func (d *decoder) batchResponse(v *BatchResponse) error {
	return d.object("BatchResponse", func(key []byte) error {
		if match(key, []string{"outcomes"}) == "" {
			return d.skip()
		}
		return sliceField(d, &v.Outcomes, (*decoder).wireOutcome)
	})
}

// sliceField reads an array or null into *s the way encoding/json fills a
// slice: null sets it nil; element i decodes into (*s)[i] while the old
// length or capacity reaches, so a repeated key overwrites what the earlier
// one left field by field, and the slice is cut to the new length — an
// empty array gives an empty, non-nil slice.
func sliceField[T any](d *decoder, s *[]T, elem func(*decoder, *T) error) error {
	switch d.peek() {
	case 'n':
		*s = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("array")
	}
	if err := d.enter(); err != nil {
		return err
	}
	v := *s
	i := 0
	for first := true; ; first = false {
		more, err := d.next(first, ']')
		if err != nil {
			return err
		}
		if !more {
			break
		}
		switch {
		case i < len(v):
		case i < cap(v):
			v = v[:i+1]
		default:
			var zero T
			v = append(v, zero)
		}
		if err := elem(d, &v[i]); err != nil {
			return err
		}
		i++
	}
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
	return nil
}

func (d *decoder) stringField(s *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		b, err := d.str()
		if err != nil {
			return err
		}
		*s = string(b)
		return nil
	}
	return d.mismatch("string")
}

func (d *decoder) boolField(p *bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	}
	return d.mismatch("bool")
}

// number returns the JSON number at the read position, after checking it
// against the grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (d *decoder) number() (num []byte, err error) {
	data, i := d.data, d.off
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = skipDigits(data, i)
	default:
		d.off = i
		return nil, d.errorf("invalid number")
	}
	if i < len(data) && data[i] == '.' {
		if j := skipDigits(data, i+1); j > i+1 {
			i = j
		} else {
			d.off = j
			return nil, d.errorf("invalid number: no digits after decimal point")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if j := skipDigits(data, i); j > i {
			i = j
		} else {
			d.off = j
			return nil, d.errorf("invalid number: no digits in exponent")
		}
	}
	num = data[d.off:i]
	d.off = i
	return num, nil
}

func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

func isNumberStart(c byte) bool { return c == '-' || '0' <= c && c <= '9' }

// numberValue reads a numeric field's value: a number, checked against the
// grammar, or null, for which it returns a nil num and leaves the field as
// it is.
func (d *decoder) numberValue(want string) (num []byte, err error) {
	switch c := d.peek(); {
	case c == 'n':
		return nil, d.literal("null")
	case isNumberStart(c):
		return d.number()
	}
	return nil, d.mismatch(want)
}

// floatField, intField and uint8Field convert a number with strconv exactly
// as encoding/json does, so fractions and exponents fail for the integer
// fields, and any value out of the field's range fails.
func (d *decoder) floatField(p *float64) error {
	num, err := d.numberValue("float64")
	if num == nil || err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return d.errorf("number %s does not fit float64", num)
	}
	*p = f
	return nil
}

func (d *decoder) intField(p *int) error {
	num, err := d.numberValue("int")
	if num == nil || err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	if err != nil {
		return d.errorf("number %s is not an int", num)
	}
	*p = int(n)
	return nil
}

func (d *decoder) uint8Field(p *uint8) error {
	num, err := d.numberValue("uint8")
	if num == nil || err != nil {
		return err
	}
	n, err := strconv.ParseUint(string(num), 10, 8)
	if err != nil {
		return d.errorf("number %s is not a uint8", num)
	}
	*p = uint8(n)
	return nil
}

// skip reads past one value of any type, checking its syntax.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		if err := d.enter(); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, more, err := d.key(first)
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := d.enter(); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := d.next(first, ']')
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case isNumberStart(c):
		_, err := d.number()
		return err
	}
	return d.mismatch("value")
}

// str reads the string at the read position and returns its contents
// unquoted: escapes decoded (a \u surrogate pair to its rune, a lone
// surrogate to U+FFFD) and each invalid UTF-8 byte replaced by U+FFFD. The
// result aliases data when nothing needed decoding, else scratch.
func (d *decoder) str() ([]byte, error) {
	data := d.data
	start := d.off + 1
	i := start
	for i < len(data) {
		c := data[i]
		if c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' {
			i++
			continue
		}
		if c == '"' {
			d.off = i + 1
			return data[start:i], nil
		}
		if c < utf8.RuneSelf {
			break
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	b := append(d.scratch[:0], data[start:i]...)
	for {
		if i >= len(data) {
			d.off = i
			return nil, d.errorf("unterminated string")
		}
		switch c := data[i]; {
		case c == '"':
			d.scratch = b
			d.off = i + 1
			return b, nil
		case c < ' ':
			d.off = i
			return nil, d.errorf("control character %#x in string", c)
		case c == '\\':
			if i+1 >= len(data) {
				d.off = i
				return nil, d.errorf("unterminated string")
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(data[i:])
				if r < 0 {
					d.off = i
					return nil, d.errorf("invalid \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, hex4(data[i:])); pair != utf8.RuneError {
						b = utf8.AppendRune(b, pair)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.off = i
				return nil, d.errorf("invalid escape \\%c", e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, data[i:i+size]...)
			}
			i += size
		}
	}
}

// hex4 decodes the \uXXXX escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}
