package nf2

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Binary encoding of a tuple (all integers big-endian):
//
//	u16                total encoded length, including this header
//	u16 × numAttrs     offset of each attribute payload from tuple start
//	attribute payloads in schema order:
//	  Int / Link       4 bytes
//	  String           u16 actual length + declared-capacity fixed bytes
//	  Rel              u16 subtuple count
//	                   u16 × count offsets of each subtuple relative to the
//	                                relation payload start
//	                   encoded subtuples
//
// The overheads are therefore explicit and small, in the spirit of the
// DASDBS mini-directories: 2+2·n bytes per tuple of n attributes, 2 bytes
// per string, 2+2·c bytes per relation of c subtuples. Fixed-capacity
// string payloads keep the paper's byte accounting (a STR is its declared
// size on disk regardless of content). The offset directory is what allows
// partial decoding (DecodeAttr) and hence the DASDBS-style access to parts
// of an object without materializing all of it.

// Encoding errors.
var (
	ErrTupleTooLarge = errors.New("nf2: encoded tuple exceeds 64 KiB")
	ErrCorrupt       = errors.New("nf2: corrupt encoding")
)

const maxEncoded = 1<<16 - 1

// FlatSize returns the encoded size of a tt tuple whose relations are all
// empty — of every tt tuple, when tt has no relation attribute: a STR
// occupies its declared capacity whatever it holds, so the schema alone
// fixes it.
func (tt *TupleType) FlatSize() int { return tt.flat }

// NestedSize returns the encoded size of a tt tuple whose relations hold,
// between them, n sub-tuples of subBytes encoded bytes in total. With
// FlatSize it sizes any tuple from its fan-outs, without building it.
func (tt *TupleType) NestedSize(n, subBytes int) int { return tt.flat + 2*n + subBytes }

// EncodedSize returns the exact number of bytes Encode will produce for t.
// It does not validate; call Validate first for untrusted tuples.
func (tt *TupleType) EncodedSize(t Tuple) int {
	n := tt.flat
	for i, a := range tt.Attrs {
		if a.Type.Kind == Rel {
			for _, sub := range t.Vals[i].rel {
				n += 2 + a.Type.Elem.EncodedSize(sub)
			}
		}
	}
	return n
}

// Encode validates t against the schema and serializes it into a fresh
// buffer of exactly the encoded size.
func (tt *TupleType) Encode(t Tuple) ([]byte, error) { return tt.AppendEncode(nil, t) }

// AppendEncode validates t against the schema and appends its encoding
// to dst, growing dst at most once: Encode into a buffer the caller
// reuses. On error dst is returned as it was given.
func (tt *TupleType) AppendEncode(dst []byte, t Tuple) ([]byte, error) {
	if err := tt.Validate(t); err != nil {
		return dst, err
	}
	size := tt.EncodedSize(t)
	if size > maxEncoded {
		return dst, fmt.Errorf("%w: %s is %d bytes", ErrTupleTooLarge, tt.Name, size)
	}
	buf := tt.appendTuple(slices.Grow(dst, size), t)
	if len(buf)-len(dst) != size {
		return dst, fmt.Errorf("nf2: internal size mismatch for %s: computed %d, wrote %d",
			tt.Name, size, len(buf)-len(dst))
	}
	return buf, nil
}

// appendTuple appends a valid tuple that fits 64 KiB, as its sub-tuples
// then do.
func (tt *TupleType) appendTuple(buf []byte, t Tuple) []byte {
	base := len(buf)
	buf = append(buf, make([]byte, 2+2*len(tt.Attrs))...)
	for i, a := range tt.Attrs {
		binary.BigEndian.PutUint16(buf[base+2+2*i:], uint16(len(buf)-base))
		v := t.Vals[i]
		switch a.Type.Kind {
		case Int, Link:
			buf = binary.BigEndian.AppendUint32(buf, uint32(v.i))
		case String:
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(v.s)))
			buf = append(buf, v.s...)
			buf = append(buf, make([]byte, a.Type.Size-len(v.s))...)
		case Rel:
			relBase := len(buf)
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(v.rel)))
			buf = append(buf, make([]byte, 2*len(v.rel))...)
			for j, sub := range v.rel {
				binary.BigEndian.PutUint16(buf[relBase+2+2*j:], uint16(len(buf)-relBase))
				buf = a.Type.Elem.appendTuple(buf, sub)
			}
		}
	}
	binary.BigEndian.PutUint16(buf[base:], uint16(len(buf)-base))
	return buf
}

// EncodedLen returns the total length header of an encoded tuple, so
// callers can split concatenated encodings.
func EncodedLen(buf []byte) (int, error) {
	if len(buf) < 2 {
		return 0, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	n := int(binary.BigEndian.Uint16(buf))
	if n < 2 || n > len(buf) {
		return 0, fmt.Errorf("%w: length %d of %d", ErrCorrupt, n, len(buf))
	}
	return n, nil
}

// The decoders below share one set of bounds checks. Each check is a small
// predicate the compiler inlines — header, attrOff, intFits, strLen,
// relCount, relElem, with a negative or nil result for "does not fit" — and
// the error that names what failed is built out of line by its *Err twin.
// That keeps every reader flat, whether it walks a whole tuple (Decode,
// Record, StringBytes) or picks one attribute (DecodeAttr, VisitRel), and
// gives none of them a private copy of a check.

// header returns the tuple at the start of buf trimmed to its encoded
// length, or nil when its length prefix or offset directory does not fit.
func (tt *TupleType) header(buf []byte) []byte {
	if len(buf) < 2 {
		return nil
	}
	n := int(binary.BigEndian.Uint16(buf))
	if n < 2+2*len(tt.Attrs) || n > len(buf) {
		return nil
	}
	return buf[:n]
}

func (tt *TupleType) headerErr(buf []byte) error {
	if _, err := EncodedLen(buf); err != nil {
		return err
	}
	return fmt.Errorf("%w: %s directory truncated", ErrCorrupt, tt.Name)
}

// attrOff returns the payload offset of attribute i in a tuple header
// accepted, or -1 when the directory entry points outside it.
func (tt *TupleType) attrOff(tup []byte, i int) int {
	off := int(binary.BigEndian.Uint16(tup[2+2*i:]))
	if off < 2+2*len(tt.Attrs) || off > len(tup) {
		return -1
	}
	return off
}

func (tt *TupleType) offsetErr(tup []byte, i int) error {
	return fmt.Errorf("%w: %s.%s offset %d", ErrCorrupt, tt.Name, tt.Attrs[i].Name,
		binary.BigEndian.Uint16(tup[2+2*i:]))
}

// intFits reports whether a 4-byte payload fits at off.
func intFits(tup []byte, off int) bool { return off+4 <= len(tup) }

// strLen returns the actual length of a String payload of capacity size at
// off, or -1 when the payload does not fit or claims more than size.
func strLen(tup []byte, off, size int) int {
	if off+2+size > len(tup) {
		return -1
	}
	n := int(binary.BigEndian.Uint16(tup[off:]))
	if n > size {
		return -1
	}
	return n
}

func (tt *TupleType) strErr(tup []byte, off int, a *Attr) error {
	if off+2+a.Type.Size > len(tup) {
		return tt.corrupt(a, "string payload")
	}
	return fmt.Errorf("%w: %s.%s string length %d > %d",
		ErrCorrupt, tt.Name, a.Name, binary.BigEndian.Uint16(tup[off:]), a.Type.Size)
}

// relCount returns the subtuple count of a Rel payload at off, or -1 when
// the count or the subtuple directory does not fit.
func relCount(tup []byte, off int) int {
	if off+2 > len(tup) {
		return -1
	}
	count := int(binary.BigEndian.Uint16(tup[off:]))
	if off+2+2*count > len(tup) {
		return -1
	}
	return count
}

func (tt *TupleType) relErr(tup []byte, off int, a *Attr) error {
	if off+2 > len(tup) {
		return tt.corrupt(a, "rel count")
	}
	return tt.corrupt(a, "rel directory")
}

// relElem returns the encoded bytes of subtuple j of that payload (they run
// to the end of tup; the subtuple's own header says where it stops), or nil
// when its directory entry points outside the payload.
func relElem(tup []byte, off, count, j int) []byte {
	rel := int(binary.BigEndian.Uint16(tup[off+2+2*j:]))
	if rel < 2+2*count || off+rel >= len(tup) {
		return nil
	}
	return tup[off+rel:]
}

func (tt *TupleType) elemErr(a *Attr, j int) error {
	return fmt.Errorf("%w: %s.%s[%d] offset", ErrCorrupt, tt.Name, a.Name, j)
}

func (tt *TupleType) corrupt(a *Attr, what string) error {
	return fmt.Errorf("%w: %s.%s %s", ErrCorrupt, tt.Name, a.Name, what)
}

func (tt *TupleType) rangeErr(i int) error {
	return fmt.Errorf("nf2: attribute %d out of range for %s", i, tt.Name)
}

// Decode deserializes one tuple from the start of buf (which may contain
// trailing bytes beyond the encoded tuple).
func (tt *TupleType) Decode(buf []byte) (Tuple, error) {
	tup := tt.header(buf)
	if tup == nil {
		return Tuple{}, tt.headerErr(buf)
	}
	t := Tuple{Vals: make([]Value, len(tt.Attrs))}
	for i := range tt.Attrs {
		off := tt.attrOff(tup, i)
		if off < 0 {
			return Tuple{}, tt.offsetErr(tup, i)
		}
		var err error
		if t.Vals[i], err = tt.decodeAt(tup, off, &tt.Attrs[i]); err != nil {
			return Tuple{}, err
		}
	}
	return t, nil
}

// VisitRel iterates the elements of Rel attribute i without materializing
// any tuples: fn is invoked once per element with its index, the element
// count and the element's encoded bytes (aliasing buf — valid only during
// the call), and decodes what it needs via Elem's DecodeAttr or Open. This
// is the allocation-free counterpart of DecodeAttr for relation attributes;
// the object-assembly hot paths use it so that decoding a stored object
// allocates only the values that end up in the result.
func (tt *TupleType) VisitRel(buf []byte, i int, fn func(j, n int, elem []byte) error) error {
	if i < 0 || i >= len(tt.Attrs) {
		return tt.rangeErr(i)
	}
	a := &tt.Attrs[i]
	if a.Type.Kind != Rel {
		return fmt.Errorf("nf2: %s.%s is not a relation attribute", tt.Name, a.Name)
	}
	tup := tt.header(buf)
	if tup == nil {
		return tt.headerErr(buf)
	}
	off := tt.attrOff(tup, i)
	if off < 0 {
		return tt.offsetErr(tup, i)
	}
	count := relCount(tup, off)
	if count < 0 {
		return tt.relErr(tup, off, a)
	}
	for j := 0; j < count; j++ {
		elem := relElem(tup, off, count, j)
		if elem == nil {
			return tt.elemErr(a, j)
		}
		if err := fn(j, count, elem); err != nil {
			return err
		}
	}
	return nil
}

// DecodeAttr decodes only attribute i of the encoded tuple, using the
// offset directory for random access. This is the CPU-level counterpart of
// the paper's "only the attributes tuples that are needed will be
// projected/selected" (§2.2). It is the reference partial decoder: the
// storage models read attributes unboxed through Record (Int, Str) and
// VisitRel, which share its bounds checks, and DecodeAttr stays as the
// readable form of the same projection — the differential oracle Record is
// quick-tested against, and what the root Example_nf2Assembly shows. It
// boxes its result in a Value and gives every String its own allocation,
// so it is kept off the hot paths rather than tuned for them.
func (tt *TupleType) DecodeAttr(buf []byte, i int) (Value, error) {
	if i < 0 || i >= len(tt.Attrs) {
		return Value{}, tt.rangeErr(i)
	}
	tup := tt.header(buf)
	if tup == nil {
		return Value{}, tt.headerErr(buf)
	}
	off := tt.attrOff(tup, i)
	if off < 0 {
		return Value{}, tt.offsetErr(tup, i)
	}
	return tt.decodeAt(tup, off, &tt.Attrs[i])
}

// decodeAt decodes the attribute a whose payload starts at off in the tuple
// header accepted.
func (tt *TupleType) decodeAt(tup []byte, off int, a *Attr) (Value, error) {
	switch a.Type.Kind {
	case Int, Link:
		if !intFits(tup, off) {
			return Value{}, tt.corrupt(a, "int payload")
		}
		return Value{kind: a.Type.Kind, i: int32(binary.BigEndian.Uint32(tup[off:]))}, nil
	case String:
		n := strLen(tup, off, a.Type.Size)
		if n < 0 {
			return Value{}, tt.strErr(tup, off, a)
		}
		return StringValue(string(tup[off+2 : off+2+n])), nil
	case Rel:
		count := relCount(tup, off)
		if count < 0 {
			return Value{}, tt.relErr(tup, off, a)
		}
		subs := make([]Tuple, count)
		for j := range subs {
			elem := relElem(tup, off, count, j)
			if elem == nil {
				return Value{}, tt.elemErr(a, j)
			}
			var err error
			if subs[j], err = a.Type.Elem.Decode(elem); err != nil {
				return Value{}, err
			}
		}
		return RelValue(subs), nil
	default:
		return Value{}, fmt.Errorf("nf2: unknown kind %v", a.Type.Kind)
	}
}

// Record is an encoded tuple whose header Open has validated: its methods
// read attributes through the offset directory like DecodeAttr — same
// checks, same errors, equal values — without validating the header again
// and without boxing the result in a Value. It aliases the bytes it was
// opened on and is valid as long as they are. Storage models assemble
// objects through it, an attribute at a time.
type Record struct {
	tt  *TupleType
	tup []byte
}

// Open validates the header of the tuple at the start of buf.
func (tt *TupleType) Open(buf []byte) (Record, error) {
	tup := tt.header(buf)
	if tup == nil {
		return Record{}, tt.headerErr(buf)
	}
	return Record{tt, tup}, nil
}

// attr locates attribute i, which must be of kind k (a Link passes for Int).
func (r Record) attr(i int, k Kind) (*Attr, int, error) {
	if i < 0 || i >= len(r.tt.Attrs) {
		return nil, 0, r.tt.rangeErr(i)
	}
	a := &r.tt.Attrs[i]
	if a.Type.Kind != k && !(k == Int && a.Type.Kind == Link) {
		return nil, 0, fmt.Errorf("nf2: %s.%s is not a %v attribute", r.tt.Name, a.Name, k)
	}
	off := r.tt.attrOff(r.tup, i)
	if off < 0 {
		return nil, 0, r.tt.offsetErr(r.tup, i)
	}
	return a, off, nil
}

// Int returns Int or Link attribute i.
func (r Record) Int(i int) (int32, error) {
	a, off, err := r.attr(i, Int)
	if err != nil {
		return 0, err
	}
	if !intFits(r.tup, off) {
		return 0, r.tt.corrupt(a, "int payload")
	}
	return int32(binary.BigEndian.Uint32(r.tup[off:])), nil
}

// Str returns String attribute i with its payload packed into strs (see
// Strings for what the value keeps alive) instead of allocated on its own.
func (r Record) Str(i int, strs *Strings) (string, error) {
	a, off, err := r.attr(i, String)
	if err != nil {
		return "", err
	}
	n := strLen(r.tup, off, a.Type.Size)
	if n < 0 {
		return "", r.tt.strErr(r.tup, off, a)
	}
	return strs.Add(r.tup[off+2 : off+2+n]), nil
}

// StringBytes returns the number of bytes the String payloads of the
// encoded tuple — nested subtuples included — will occupy once decoded: a
// measuring pass over the u16 length fields, so a caller about to decode
// the whole tuple's strings into a Strings can Grow it exactly first. It
// applies decoding's checks, with decoding's errors, to what it walks (the
// directories and the String attributes; Int payloads are not looked at).
func (tt *TupleType) StringBytes(buf []byte) (int, error) {
	tup := tt.header(buf)
	if tup == nil {
		return 0, tt.headerErr(buf)
	}
	total := 0
	for i := range tt.Attrs {
		a := &tt.Attrs[i]
		if a.Type.Kind != String && a.Type.Kind != Rel {
			continue
		}
		off := tt.attrOff(tup, i)
		if off < 0 {
			return 0, tt.offsetErr(tup, i)
		}
		if a.Type.Kind == String {
			n := strLen(tup, off, a.Type.Size)
			if n < 0 {
				return 0, tt.strErr(tup, off, a)
			}
			total += n
			continue
		}
		count := relCount(tup, off)
		if count < 0 {
			return 0, tt.relErr(tup, off, a)
		}
		for j := 0; j < count; j++ {
			elem := relElem(tup, off, count, j)
			if elem == nil {
				return 0, tt.elemErr(a, j)
			}
			n, err := a.Type.Elem.StringBytes(elem)
			if err != nil {
				return 0, err
			}
			total += n
		}
	}
	return total, nil
}
