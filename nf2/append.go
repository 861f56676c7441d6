package nf2

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Appender encodes one tuple of a TupleType straight into a caller's
// buffer, a value at a time, with no Tuple built first. The schema drives
// it: each Int, Link, Str or Rel call supplies the next attribute of the
// open tuple and is checked against it; Rel(n, each) opens the relation's
// n sub-tuples in turn and calls each(i) to supply the i-th. Lengths and
// offsets are patched as tuples complete. Finish returns what AppendEncode
// would have: the same bytes, or dst as it was given and the first error
// met, of the same class (wrong kind, too few or too many values, a
// string over its capacity, more than 64 KiB); once there is one, every
// further call does nothing, so a caller checks once, at Finish.
//
// The bytes go into dst's spare capacity when there is any and into a
// grown copy when not, as with append: the slice Finish returns is the
// encoding, and what dst held before its length is never written. An
// Appender is a stack value and allocates nothing but that growth; it must
// not be copied once a value has been supplied.
type Appender struct {
	buf   []byte
	start int        // len(dst): what Finish keeps on error
	err   error      // the first error
	tt    *TupleType // the open tuple: the top-level one, or the sub-tuple a Rel is at
	base  int        // where it starts in buf
	attr  int        // its next attribute
}

// Appender starts the encoding of one tt tuple at the end of dst.
func (tt *TupleType) Appender(dst []byte) Appender {
	a := Appender{buf: slices.Grow(dst, tt.flat), start: len(dst)}
	a.open(tt)
	return a
}

// open starts a tt tuple: its length and offset directory, zero until known.
func (a *Appender) open(tt *TupleType) {
	a.tt, a.base, a.attr = tt, len(a.buf), 0
	a.buf = append(a.buf, make([]byte, 2+2*len(tt.Attrs))...)
}

// close ends the open tuple, which must have all its attributes and fit
// 64 KiB, and enters its length.
func (a *Appender) close() {
	switch size := len(a.buf) - a.base; {
	case a.err != nil:
	case a.attr < len(a.tt.Attrs):
		a.err = fmt.Errorf("%w: %s ends before %s", ErrArity, a.tt.Name, a.tt.Attrs[a.attr].Name)
	case size > maxEncoded:
		a.err = fmt.Errorf("%w: %s is %d bytes", ErrTupleTooLarge, a.tt.Name, size)
	default:
		a.put16(a.base, size)
	}
}

func (a *Appender) put16(at, v int) { binary.BigEndian.PutUint16(a.buf[at:], uint16(v)) }

// slot takes the open tuple's next attribute, which must be of kind k,
// and enters the offset of its payload — the caller appends it — in the
// tuple's directory.
func (a *Appender) slot(k Kind) *Attr {
	if a.err != nil {
		return nil
	}
	if a.attr == len(a.tt.Attrs) {
		a.err = fmt.Errorf("%w: a value after %s's last attribute", ErrArity, a.tt.Name)
		return nil
	}
	at := &a.tt.Attrs[a.attr]
	if at.Type.Kind != k {
		a.err = fmt.Errorf("%w: %s.%s is %v, schema %v", ErrKindMismatch, a.tt.Name, at.Name, k, at.Type.Kind)
		return nil
	}
	a.put16(a.base+2+2*a.attr, len(a.buf)-a.base)
	a.attr++
	return at
}

// Int supplies an Int attribute.
func (a *Appender) Int(v int32) { a.fixed(Int, v) }

// Link supplies a Link attribute.
func (a *Appender) Link(oid int32) { a.fixed(Link, oid) }

func (a *Appender) fixed(k Kind, v int32) {
	if a.slot(k) != nil {
		a.buf = binary.BigEndian.AppendUint32(a.buf, uint32(v))
	}
}

// Str supplies a String attribute, padded to its declared capacity.
func (a *Appender) Str(s string) {
	at := a.slot(String)
	if at == nil {
		return
	}
	if len(s) > at.Type.Size {
		a.err = fmt.Errorf("%w: %s.%s %d > %d", ErrStringTooBig, a.tt.Name, at.Name, len(s), at.Type.Size)
		return
	}
	a.buf = binary.BigEndian.AppendUint16(a.buf, uint16(len(s)))
	a.buf = append(a.buf, s...)
	a.buf = append(a.buf, make([]byte, at.Type.Size-len(s))...)
}

// Rel supplies a Rel attribute of n sub-tuples: each(i) is called with
// sub-tuple i open, to supply its attributes (never, when n is 0).
func (a *Appender) Rel(n int, each func(i int)) {
	at := a.slot(Rel)
	if at == nil {
		return
	}
	if n < 0 || 2+2*n > maxEncoded {
		a.err = fmt.Errorf("%w: %s.%s of %d tuples", ErrTupleTooLarge, a.tt.Name, at.Name, n)
		return
	}
	rel := len(a.buf)
	a.buf = slices.Grow(a.buf, 2+n*(2+at.Type.Elem.flat))
	a.buf = binary.BigEndian.AppendUint16(a.buf, uint16(n))
	a.buf = append(a.buf, make([]byte, 2*n)...)
	tt, base, attr := a.tt, a.base, a.attr
	for i := 0; i < n && a.err == nil; i++ {
		a.put16(rel+2+2*i, len(a.buf)-rel)
		a.open(at.Type.Elem)
		each(i)
		a.close()
	}
	a.tt, a.base, a.attr = tt, base, attr
}

// Finish returns dst with the encoded tuple appended, or dst as it was
// given and the first error.
func (a *Appender) Finish() ([]byte, error) {
	if a.close(); a.err != nil {
		return a.buf[:a.start], a.err
	}
	return a.buf, nil
}
