package nf2

import (
	"errors"
	"strings"
	"testing"
)

// testSchema builds a small two-level schema exercising all four kinds.
func testSchema(t *testing.T) *TupleType {
	t.Helper()
	inner := MustTupleType("Inner",
		Attr{"A", IntType()},
		Attr{"B", StringType(10)},
		Attr{"C", LinkType()},
	)
	return MustTupleType("Outer",
		Attr{"K", IntType()},
		Attr{"Name", StringType(20)},
		Attr{"Subs", RelType(inner)},
	)
}

func sampleTuple() Tuple {
	return NewTuple(
		IntValue(7),
		StringValue("hello"),
		RelValue([]Tuple{
			NewTuple(IntValue(1), StringValue("x"), LinkValue(100)),
			NewTuple(IntValue(2), StringValue("yy"), LinkValue(200)),
		}),
	)
}

func TestNewTupleTypeValidation(t *testing.T) {
	cases := []struct {
		name  string
		attrs []Attr
		want  error
	}{
		{"empty", nil, ErrEmptySchema},
		{"dup", []Attr{{"A", IntType()}, {"A", IntType()}}, ErrDupAttr},
		{"badstr", []Attr{{"S", StringType(0)}}, ErrBadString},
		{"nilrel", []Attr{{"R", Type{Kind: Rel}}}, ErrNilElem},
	}
	for _, c := range cases {
		if _, err := NewTupleType(c.name, c.attrs...); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := NewTupleType("ok", Attr{"A", IntType()}); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
}

func TestSchemaString(t *testing.T) {
	s := testSchema(t).String()
	for _, want := range []string{"Outer", "K INT", "Name STR(20)", "Subs {(Inner)}"} {
		if !strings.Contains(s, want) {
			t.Errorf("schema string %q missing %q", s, want)
		}
	}
}

func TestValidate(t *testing.T) {
	tt := testSchema(t)
	if err := tt.Validate(sampleTuple()); err != nil {
		t.Fatalf("valid tuple rejected: %v", err)
	}
	bad := sampleTuple()
	bad.Vals = bad.Vals[:2]
	if err := tt.Validate(bad); !errors.Is(err, ErrArity) {
		t.Errorf("arity err = %v", err)
	}
	bad = sampleTuple()
	bad.Vals[0] = StringValue("no")
	if err := tt.Validate(bad); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("kind err = %v", err)
	}
	bad = sampleTuple()
	bad.Vals[1] = StringValue(strings.Repeat("x", 21))
	if err := tt.Validate(bad); !errors.Is(err, ErrStringTooBig) {
		t.Errorf("string size err = %v", err)
	}
	bad = sampleTuple()
	bad.Vals[2] = RelValue([]Tuple{NewTuple(IntValue(1))})
	if err := tt.Validate(bad); !errors.Is(err, ErrArity) {
		t.Errorf("nested arity err = %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tt := testSchema(t)
	in := sampleTuple()
	buf, err := tt.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tt.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tt.Equal(in, out) {
		t.Errorf("round trip mismatch:\n in=%v\nout=%v", in, out)
	}
}

func TestEncodedSizeMatchesEncode(t *testing.T) {
	tt := testSchema(t)
	in := sampleTuple()
	buf, err := tt.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := tt.EncodedSize(in); got != len(buf) {
		t.Errorf("EncodedSize = %d, len(Encode) = %d", got, len(buf))
	}
}

func TestEncodedSizeArithmetic(t *testing.T) {
	// Verify the documented overhead model on a flat tuple:
	// 2 (len) + 2*n (dir) + 4 (int) + 2+cap (string) + 4 (link).
	tt := MustTupleType("Flat",
		Attr{"I", IntType()},
		Attr{"S", StringType(100)},
		Attr{"L", LinkType()},
	)
	want := 2 + 2*3 + 4 + (2 + 100) + 4
	got := tt.EncodedSize(NewTuple(IntValue(1), StringValue("abc"), LinkValue(2)))
	if got != want {
		t.Errorf("flat tuple size = %d, want %d", got, want)
	}
}

func TestFixedStringFootprint(t *testing.T) {
	// Paper convention: a STR attribute occupies its declared size
	// regardless of content.
	tt := MustTupleType("S", Attr{"S", StringType(100)})
	short := tt.EncodedSize(NewTuple(StringValue("")))
	long := tt.EncodedSize(NewTuple(StringValue(strings.Repeat("x", 100))))
	if short != long {
		t.Errorf("string footprint varies with content: %d vs %d", short, long)
	}
}

func TestDecodeAttrPartial(t *testing.T) {
	tt := testSchema(t)
	buf, _ := tt.Encode(sampleTuple())
	v, err := tt.DecodeAttr(buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Str() != "hello" {
		t.Errorf("DecodeAttr(1) = %q", v.Str())
	}
	v, err = tt.DecodeAttr(buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Tuples()) != 2 || v.Tuples()[1].Vals[2].Int() != 200 {
		t.Errorf("DecodeAttr(2) = %v", v)
	}
	if _, err := tt.DecodeAttr(buf, 5); err == nil {
		t.Error("out-of-range attribute accepted")
	}
}

func TestEmptyRelation(t *testing.T) {
	tt := testSchema(t)
	in := NewTuple(IntValue(1), StringValue(""), RelValue(nil))
	buf, err := tt.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tt.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Vals[2].Tuples()) != 0 {
		t.Errorf("empty relation decoded as %v", out.Vals[2])
	}
}

func TestDeepNesting(t *testing.T) {
	leaf := MustTupleType("Leaf", Attr{"V", IntType()})
	mid := MustTupleType("Mid", Attr{"Ls", RelType(leaf)})
	top := MustTupleType("Top", Attr{"Ms", RelType(mid)})
	in := NewTuple(RelValue([]Tuple{
		NewTuple(RelValue([]Tuple{NewTuple(IntValue(1)), NewTuple(IntValue(2))})),
		NewTuple(RelValue(nil)),
		NewTuple(RelValue([]Tuple{NewTuple(IntValue(3))})),
	}))
	buf, err := top.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := top.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !top.Equal(in, out) {
		t.Error("three-level nesting round trip failed")
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	tt := testSchema(t)
	bad := sampleTuple()
	bad.Vals[0] = StringValue("wrong")
	if _, err := tt.Encode(bad); err == nil {
		t.Error("Encode accepted invalid tuple")
	}
}

func TestEncodeRejectsOversized(t *testing.T) {
	inner := MustTupleType("I", Attr{"S", StringType(1000)})
	tt := MustTupleType("T", Attr{"R", RelType(inner)})
	subs := make([]Tuple, 70) // 70 KiB of payload > 64 KiB limit
	for i := range subs {
		subs[i] = NewTuple(StringValue("x"))
	}
	if _, err := tt.Encode(NewTuple(RelValue(subs))); !errors.Is(err, ErrTupleTooLarge) {
		t.Errorf("oversized tuple err = %v", err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	tt := testSchema(t)
	buf, _ := tt.Encode(sampleTuple())
	cases := map[string]func([]byte) []byte{
		"empty":        func(b []byte) []byte { return nil },
		"shortHeader":  func(b []byte) []byte { return b[:1] },
		"truncated":    func(b []byte) []byte { return b[:8] },
		"lenTooShort":  func(b []byte) []byte { c := clone(b); c[0], c[1] = 0, 1; return c },
		"badAttrOff":   func(b []byte) []byte { c := clone(b); c[2], c[3] = 0xFF, 0xFF; return c },
		"badStringLen": func(b []byte) []byte { c := clone(b); off := 2 + 2*3 + 4; c[off], c[off+1] = 0xFF, 0xFF; return c },
	}
	for name, corrupt := range cases {
		if _, err := tt.Decode(corrupt(buf)); err == nil {
			t.Errorf("%s: corrupt buffer decoded successfully", name)
		}
	}
}

func clone(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

func TestEncodedLen(t *testing.T) {
	tt := testSchema(t)
	buf, _ := tt.Encode(sampleTuple())
	n, err := EncodedLen(buf)
	if err != nil || n != len(buf) {
		t.Errorf("EncodedLen = %d,%v; want %d", n, err, len(buf))
	}
	// With trailing bytes.
	n, err = EncodedLen(append(clone(buf), 1, 2, 3))
	if err != nil || n != len(buf) {
		t.Errorf("EncodedLen with trailer = %d,%v", n, err)
	}
}

func TestEqual(t *testing.T) {
	tt := testSchema(t)
	a, b := sampleTuple(), sampleTuple()
	if !tt.Equal(a, b) {
		t.Error("identical tuples not equal")
	}
	b.Vals[2].Tuples()[1].Vals[0] = IntValue(99)
	if tt.Equal(a, b) {
		t.Error("tuples differing in a subtuple reported equal")
	}
	short := NewTuple(IntValue(1))
	if tt.Equal(a, short) {
		t.Error("invalid tuple reported equal")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Int: "INT", String: "STR", Link: "LINK", Rel: "REL"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", k, k.String())
		}
	}
}

func TestValueString(t *testing.T) {
	for v, want := range map[*Value]string{
		ptr(IntValue(5)):      "5",
		ptr(LinkValue(9)):     "->9",
		ptr(StringValue("a")): `"a"`,
		ptr(RelValue(nil)):    "{0 tuples}",
	} {
		if v.String() != want {
			t.Errorf("Value.String() = %q, want %q", v.String(), want)
		}
	}
}

func ptr[T any](v T) *T { return &v }
