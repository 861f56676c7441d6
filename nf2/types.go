// Package nf2 implements the hierarchical complex object model of the paper:
// nested (NF², "non first normal form") tuples built from integer, fixed-size
// string, object-reference (LINK) and relation-valued attributes, together
// with a binary storage encoding.
//
// The paper (§1) restricts itself to "tuples with relation-valued
// attributes, the so-called nested or NF² tuples, as examples of complex
// objects"; this package is the corresponding data model. Storage models
// consume the encoding produced here, so every byte of tuple overhead is
// explicit and documented (see Encode).
//
// Encoding comes in two forms that write the same bytes. Encode and
// AppendEncode take a Tuple, a tree of Values validated as a whole, and
// are the reference. An Appender takes the values themselves, one call per
// attribute in schema order, checks each as it arrives and reports
// AppendEncode's errors at Finish; it writes only past len(dst), as append
// does, and allocates nothing else, so a caller whose data is in structs
// builds no tree to store it — nor to size it: a STR occupies its declared
// capacity, so FlatSize and NestedSize compute sizes from the schema and
// the fan-outs. The bulk loads encode and size that way.
//
// Decoding comes in three grains. Decode materializes a whole Tuple.
// DecodeAttr reads one attribute through the offset directory and VisitRel
// walks a relation's elements in place, so a reader pays only for what it
// projects. A Record (Open) reads several attributes of one tuple with the
// header validated once and the values unboxed, and differs from DecodeAttr
// in who may own a decoded string: Record.Str appends the payload to a
// caller-supplied Strings backing instead of allocating it on its own, so a
// caller that assembles a whole object (sizing the backing with
// StringBytes) pays one string allocation per object. A value decoded that
// way pins the backing it was cut from — its own object's, when the caller
// reserved — and nothing else. All three share one set of bounds checks.
package nf2

import (
	"errors"
	"fmt"
)

// Kind enumerates the attribute type constructors of the model.
type Kind uint8

const (
	// Int is a 4-byte signed integer (the paper's INT, 4 bytes).
	Int Kind = iota
	// String is a fixed-capacity string (the paper's STR, e.g. 100 bytes).
	String
	// Link is a 4-byte object reference (the paper's LINK), holding a
	// logical object identifier resolved through an address table.
	Link
	// Rel is a relation-valued attribute: an ordered set of subtuples
	// (the paper's {( ... )} constructor).
	Rel
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Int:
		return "INT"
	case String:
		return "STR"
	case Link:
		return "LINK"
	case Rel:
		return "REL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Type describes one attribute type.
type Type struct {
	Kind Kind
	// Size is the fixed capacity in bytes for String attributes.
	Size int
	// Elem is the subtuple type for Rel attributes.
	Elem *TupleType
}

// IntType returns the 4-byte integer type.
func IntType() Type { return Type{Kind: Int} }

// StringType returns a fixed-capacity string type of n bytes.
func StringType(n int) Type { return Type{Kind: String, Size: n} }

// LinkType returns the 4-byte object reference type.
func LinkType() Type { return Type{Kind: Link} }

// RelType returns a relation-valued type with the given subtuple schema.
func RelType(elem *TupleType) Type { return Type{Kind: Rel, Elem: elem} }

// Attr is a named attribute of a tuple type.
type Attr struct {
	Name string
	Type Type
}

// TupleType is the schema of a (possibly nested) tuple.
type TupleType struct {
	Name  string
	Attrs []Attr

	flat int // FlatSize
}

// Schema validation errors.
var (
	ErrEmptySchema = errors.New("nf2: tuple type needs at least one attribute")
	ErrDupAttr     = errors.New("nf2: duplicate attribute name")
	ErrBadString   = errors.New("nf2: string attribute needs positive size")
	ErrNilElem     = errors.New("nf2: relation attribute needs an element type")
)

// NewTupleType builds and validates a tuple schema.
func NewTupleType(name string, attrs ...Attr) (*TupleType, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrEmptySchema, name)
	}
	tt := &TupleType{Name: name, Attrs: attrs, flat: 2 + 2*len(attrs)}
	seen := make(map[string]bool, len(attrs))
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("nf2: %s attribute %d has no name", name, i)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("%w: %s.%s", ErrDupAttr, name, a.Name)
		}
		seen[a.Name] = true
		switch a.Type.Kind {
		case String:
			if a.Type.Size <= 0 {
				return nil, fmt.Errorf("%w: %s.%s", ErrBadString, name, a.Name)
			}
			tt.flat += 2 + a.Type.Size
		case Rel:
			if a.Type.Elem == nil {
				return nil, fmt.Errorf("%w: %s.%s", ErrNilElem, name, a.Name)
			}
			tt.flat += 2
		case Int, Link:
			tt.flat += 4
		default:
			return nil, fmt.Errorf("nf2: %s.%s has unknown kind %d", name, a.Name, a.Type.Kind)
		}
	}
	return tt, nil
}

// MustTupleType is NewTupleType that panics on error; intended for
// statically known schemas such as the benchmark's.
func MustTupleType(name string, attrs ...Attr) *TupleType {
	tt, err := NewTupleType(name, attrs...)
	if err != nil {
		panic(err)
	}
	return tt
}

// String renders the schema in the paper's notation.
func (tt *TupleType) String() string {
	s := tt.Name + " = ("
	for i, a := range tt.Attrs {
		if i > 0 {
			s += ", "
		}
		switch a.Type.Kind {
		case String:
			s += fmt.Sprintf("%s STR(%d)", a.Name, a.Type.Size)
		case Rel:
			s += fmt.Sprintf("%s {(%s)}", a.Name, a.Type.Elem.Name)
		default:
			s += fmt.Sprintf("%s %s", a.Name, a.Type.Kind)
		}
	}
	return s + ")"
}
