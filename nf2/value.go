package nf2

import (
	"errors"
	"fmt"
)

// Value is one attribute value: a tagged union over the four kinds.
// The zero Value is the Int value 0.
type Value struct {
	kind Kind
	i    int32
	s    string
	rel  []Tuple
}

// IntValue wraps a 4-byte integer.
func IntValue(v int32) Value { return Value{kind: Int, i: v} }

// StringValue wraps a string (capacity is checked by Validate/Encode
// against the schema, not here).
func StringValue(s string) Value { return Value{kind: String, s: s} }

// LinkValue wraps an object reference.
func LinkValue(oid int32) Value { return Value{kind: Link, i: oid} }

// RelValue wraps a set of subtuples. The slice is aliased, not copied.
func RelValue(ts []Tuple) Value { return Value{kind: Rel, rel: ts} }

// Int returns the integer payload (Int or Link kinds).
func (v Value) Int() int32 { return v.i }

// Str returns the string payload.
func (v Value) Str() string { return v.s }

// Tuples returns the subtuple payload of a Rel value.
func (v Value) Tuples() []Tuple { return v.rel }

// String implements fmt.Stringer for debugging output.
func (v Value) String() string {
	switch v.kind {
	case Int:
		return fmt.Sprintf("%d", v.i)
	case Link:
		return fmt.Sprintf("->%d", v.i)
	case String:
		return fmt.Sprintf("%q", v.s)
	case Rel:
		return fmt.Sprintf("{%d tuples}", len(v.rel))
	default:
		return "?"
	}
}

// Tuple is an ordered list of attribute values conforming to a TupleType.
type Tuple struct {
	Vals []Value
}

// NewTuple builds a tuple from values.
func NewTuple(vals ...Value) Tuple { return Tuple{Vals: vals} }

// Validation errors.
var (
	ErrArity        = errors.New("nf2: tuple arity does not match schema")
	ErrKindMismatch = errors.New("nf2: value kind does not match schema")
	ErrStringTooBig = errors.New("nf2: string exceeds declared capacity")
)

// Validate checks t (recursively) against the schema.
func (tt *TupleType) Validate(t Tuple) error {
	if len(t.Vals) != len(tt.Attrs) {
		return fmt.Errorf("%w: %s has %d values, schema %d",
			ErrArity, tt.Name, len(t.Vals), len(tt.Attrs))
	}
	for i, a := range tt.Attrs {
		v := t.Vals[i]
		if v.kind != a.Type.Kind {
			return fmt.Errorf("%w: %s.%s is %v, schema %v",
				ErrKindMismatch, tt.Name, a.Name, v.kind, a.Type.Kind)
		}
		switch a.Type.Kind {
		case String:
			if len(v.s) > a.Type.Size {
				return fmt.Errorf("%w: %s.%s %d > %d",
					ErrStringTooBig, tt.Name, a.Name, len(v.s), a.Type.Size)
			}
		case Rel:
			for j, sub := range v.rel {
				if err := a.Type.Elem.Validate(sub); err != nil {
					return fmt.Errorf("%s.%s[%d]: %w", tt.Name, a.Name, j, err)
				}
			}
		}
	}
	return nil
}

// Equal reports deep equality of two tuples under the schema. Tuples that
// do not validate are never equal.
func (tt *TupleType) Equal(a, b Tuple) bool {
	if tt.Validate(a) != nil || tt.Validate(b) != nil {
		return false
	}
	return tt.equalValid(a, b)
}

func (tt *TupleType) equalValid(a, b Tuple) bool {
	for i, attr := range tt.Attrs {
		va, vb := a.Vals[i], b.Vals[i]
		switch attr.Type.Kind {
		case Int, Link:
			if va.i != vb.i {
				return false
			}
		case String:
			if va.s != vb.s {
				return false
			}
		case Rel:
			if len(va.rel) != len(vb.rel) {
				return false
			}
			for j := range va.rel {
				if !attr.Type.Elem.equalValid(va.rel[j], vb.rel[j]) {
					return false
				}
			}
		}
	}
	return true
}
