package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShort reports a truncated or overlong input.
var ErrShort = errors.New("wire: short or trailing input")

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU16 appends a big-endian uint16.
func AppendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

// AppendU32 appends a big-endian uint32.
func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// AppendU64 appends a big-endian uint64.
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// Reader consumes values appended by the Append functions.
type Reader struct {
	buf []byte
	err error
}

// NewReader wraps buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Close returns the latched error, or ErrShort if input remains.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrShort, len(r.buf))
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = fmt.Errorf("%w: need %d bytes, have %d", ErrShort, n, len(r.buf))
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

// U8 consumes one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 consumes a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 consumes a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 consumes a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Len consumes a u32 element count whose elements occupy at least
// elemSize bytes each and validates it against the bytes remaining in the
// buffer, so a corrupt count fails immediately instead of provoking a
// huge allocation before the first element read runs out of input.
func (r *Reader) Len(elemSize int) int {
	n := int(r.U32())
	if r.err == nil && int64(n)*int64(elemSize) > int64(len(r.buf)) {
		r.err = fmt.Errorf("%w: count %d of >=%d-byte elements exceeds %d remaining bytes",
			ErrShort, n, elemSize, len(r.buf))
	}
	if r.err != nil {
		return 0
	}
	return n
}
