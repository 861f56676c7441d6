package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// Every Append function and its Reader counterpart round-trip, extremes
// included, in one sequence, and the encoding is big-endian.
func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU8(b, 0xAB)
	b = AppendU16(b, 0x1234)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, 0x0102030405060708)
	b = AppendU8(b, math.MaxUint8)
	b = AppendU16(b, math.MaxUint16)
	b = AppendU32(b, math.MaxUint32)
	b = AppendU64(b, math.MaxUint64)
	b = AppendU32(b, 3) // a count of three u16 elements
	for _, v := range []uint16{7, 8, 9} {
		b = AppendU16(b, v)
	}
	if want := []byte{0xAB, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5, 6, 7, 8}; !bytes.Equal(b[:len(want)], want) {
		t.Fatalf("encoding starts % x, want big-endian % x", b[:len(want)], want)
	}

	r := NewReader(b)
	if v := r.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0x1234 {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0x0102030405060708 {
		t.Errorf("U64 = %#x", v)
	}
	if r.U8() != math.MaxUint8 || r.U16() != math.MaxUint16 || r.U32() != math.MaxUint32 || r.U64() != math.MaxUint64 {
		t.Error("maximum values did not round-trip")
	}
	n := r.Len(2)
	if n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
	for i, want := range []uint16{7, 8, 9} {
		if v := r.U16(); v != want {
			t.Errorf("element %d = %d, want %d", i, v, want)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close after consuming everything: %v", err)
	}
}

// Every read of a truncated input fails with ErrShort and yields zero.
func TestTruncatedInput(t *testing.T) {
	full := AppendU32(AppendU64(nil, 42), 7)
	reads := []struct {
		name string
		read func(*Reader) bool // reports whether the zero value came back
	}{
		{"U8", func(r *Reader) bool { return r.U8() == 0 }},
		{"U16", func(r *Reader) bool { return r.U16() == 0 }},
		{"U32", func(r *Reader) bool { return r.U32() == 0 }},
		{"U64", func(r *Reader) bool { return r.U64() == 0 }},
		{"Len", func(r *Reader) bool { return r.Len(1) == 0 }},
	}
	for _, rd := range reads {
		r := NewReader(nil)
		if !rd.read(r) {
			t.Errorf("%s of empty input returned a value", rd.name)
		}
		if !errors.Is(r.Err(), ErrShort) {
			t.Errorf("%s of empty input: err %v, want ErrShort", rd.name, r.Err())
		}
	}
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.U64()
		r.U32()
		if !errors.Is(r.Close(), ErrShort) {
			t.Errorf("input cut at %d of %d bytes: Close = %v, want ErrShort", cut, len(full), r.Close())
		}
	}
}

// Close fails with ErrShort while input remains.
func TestTrailingBytes(t *testing.T) {
	r := NewReader(AppendU16(AppendU32(nil, 1), 2))
	r.U32()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if err := r.Close(); !errors.Is(err, ErrShort) {
		t.Errorf("Close with 2 trailing bytes = %v, want ErrShort", err)
	}
}

// Len refuses a count whose elements cannot fit in what remains, before
// anyone allocates for it, and accepts one that exactly fits.
func TestLenGuard(t *testing.T) {
	fits := append(AppendU32(nil, 2), make([]byte, 8)...)
	if n := NewReader(fits).Len(4); n != 2 {
		t.Errorf("2 four-byte elements in 8 bytes: Len = %d, want 2", n)
	}
	r := NewReader(append(AppendU32(nil, 3), make([]byte, 8)...))
	if n := r.Len(4); n != 0 || !errors.Is(r.Err(), ErrShort) {
		t.Errorf("3 four-byte elements in 8 bytes: Len = %d, err %v, want 0 and ErrShort", n, r.Err())
	}
	r = NewReader(AppendU32(nil, math.MaxUint32))
	if n := r.Len(1 << 20); n != 0 || !errors.Is(r.Err(), ErrShort) {
		t.Errorf("a corrupt huge count: Len = %d, err %v", n, r.Err())
	}
	if n := NewReader(AppendU32(nil, 1000)).Len(0); n != 1000 {
		t.Errorf("zero-size elements: Len = %d, want 1000", n)
	}
}

// The first error latches: every later read returns zero and consumes
// nothing, and Close reports that first error rather than trailing bytes.
func TestLatchedError(t *testing.T) {
	b := AppendU64(AppendU32(nil, 5), 9) // a count of 5, then 8 bytes
	r := NewReader(b)
	r.Len(100) // 5 elements of 100 bytes cannot fit: the error latches here
	first := r.Err()
	if !errors.Is(first, ErrShort) {
		t.Fatalf("err %v, want ErrShort", first)
	}
	if r.U8() != 0 || r.U16() != 0 || r.U32() != 0 || r.U64() != 0 || r.Len(1) != 0 {
		t.Error("a read after the error returned a value")
	}
	if r.Err() != first {
		t.Errorf("err changed to %v after later reads", r.Err())
	}
	if err := r.Close(); err != first {
		t.Errorf("Close = %v, want the latched %v", err, first)
	}
}
