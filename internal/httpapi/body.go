package httpapi

import (
	"bytes"
	"io"
	"sync"
)

// maxPooledBuffer keeps the buffer of an unusually large body out of
// bodyPool, so one such body does not pin its memory for good. It also caps
// what ReadBody reserves on a peer's word before the bytes arrive.
const maxPooledBuffer = 1 << 20

// bodyPool recycles the op paths' buffers at both ends: the server reads a
// request body into one, decodes it, and encodes the response into the same
// one; the client reads each answer into one. Decoding copies out
// everything it keeps.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetBuffer returns an empty buffer from the op paths' pool.
func GetBuffer() *bytes.Buffer { return bodyPool.Get().(*bytes.Buffer) }

// PutBuffer returns buf to the pool, unless it grew past maxPooledBuffer.
// buf must not be used afterwards.
func PutBuffer(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuffer {
		buf.Reset()
		bodyPool.Put(buf)
	}
}

// ReadBody reads r to EOF into buf in one pass. declared is the length the
// peer announced (Content-Length, or -1 when unknown); it pre-sizes buf, but
// to at most maxPooledBuffer, so a peer that declares a large body and then
// stalls holds no more than that. A longer body grows buf as it arrives.
// Bounding the total is the caller's: wrap r, as http.MaxBytesReader does.
func ReadBody(buf *bytes.Buffer, r io.Reader, declared int64) error {
	if declared > 0 {
		buf.Grow(int(min(declared, maxPooledBuffer)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return err
}
