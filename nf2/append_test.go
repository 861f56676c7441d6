package nf2

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// randSchema draws a random schema of at most depth nesting levels.
func randSchema(rng *rand.Rand, name string, depth int) *TupleType {
	attrs := make([]Attr, 1+rng.Intn(5))
	for i := range attrs {
		attrs[i].Name = fmt.Sprintf("%s%d", name, i)
		switch k := rng.Intn(5); {
		case k == 0:
			attrs[i].Type = LinkType()
		case k == 1:
			attrs[i].Type = StringType(1 + rng.Intn(40))
		case k == 2 && depth > 0:
			attrs[i].Type = RelType(randSchema(rng, attrs[i].Name+"_", depth-1))
		default:
			attrs[i].Type = IntType()
		}
	}
	return MustTupleType(name, attrs...)
}

// supply hands t to the appender value by value, each through the method
// its own kind names — so a tuple that does not fit the schema makes the
// calls a caller with the same misunderstanding would.
func supply(a *Appender, tt *TupleType, t Tuple) {
	for i, v := range t.Vals {
		switch v.Kind() {
		case Int:
			a.Int(v.Int())
		case Link:
			a.Link(v.Int())
		case String:
			a.Str(v.Str())
		case Rel:
			a.Rel(len(v.Tuples()), func(j int) { supply(a, tt.Attrs[i].Type.Elem, v.Tuples()[j]) })
		}
	}
}

// errClass names the sentinel an encoding error wraps.
func errClass(err error) error {
	for _, class := range []error{ErrArity, ErrKindMismatch, ErrStringTooBig, ErrTupleTooLarge} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// appenderAgrees holds the Appender to its oracle, AppendEncode, on one
// tuple (valid or not) behind one prefix: the same bytes with the prefix
// untouched, or the prefix handed back and an error of the same class.
func appenderAgrees(t testing.TB, tt *TupleType, tup Tuple, prefix []byte) {
	t.Helper()
	kept := bytes.Clone(prefix)
	want, wantErr := tt.AppendEncode(bytes.Clone(prefix), tup)
	a := tt.Appender(prefix)
	supply(&a, tt, tup)
	got, gotErr := a.Finish()
	if errClass(wantErr) != errClass(gotErr) {
		t.Fatalf("%v: AppendEncode err %v, Appender err %v", tt, wantErr, gotErr)
	}
	if !bytes.Equal(got, want) || !bytes.Equal(prefix, kept) {
		t.Fatalf("%v: AppendEncode wrote %x, Appender %x (prefix %x, now %x)", tt, want, got, kept, prefix)
	}
	if wantErr == nil && len(got)-len(kept) != tt.EncodedSize(tup) {
		t.Fatalf("%v: %d bytes appended, EncodedSize %d", tt, len(got)-len(kept), tt.EncodedSize(tup))
	}
}

// appenderCase derives a schema, a tuple of it, one defect (or none) and a
// prefix from a seed, and checks them.
func appenderCase(t testing.TB, seed int64, defect uint8, spare uint8) {
	rng := rand.New(rand.NewSource(seed))
	tt := randSchema(rng, "T", rng.Intn(4))
	tup := randTuple(tt, rng, 3)
	// A defect lands in the top-level tuple or, every other time, in the
	// first sub-tuple there is.
	at, in := tt, &tup
	if sub, elem := firstSub(tt, tup); sub != nil && defect&8 != 0 {
		at, in = elem, sub
	}
	switch defect % 5 {
	case 1: // a string over its declared capacity, wherever the first one is
		overfill(at, *in)
	case 2: // too few values
		in.Vals = in.Vals[:len(in.Vals)-1]
	case 3: // too many
		in.Vals = append(in.Vals, IntValue(7))
	case 4: // a value of another kind
		i := rng.Intn(len(in.Vals))
		in.Vals[i] = []Value{IntValue(1), LinkValue(1), StringValue("s"), RelValue(nil)}[(int(in.Vals[i].Kind())+1+rng.Intn(3))%4]
	}
	prefix := append(make([]byte, 0, int(spare)*16), "prefix"[:rng.Intn(7)]...)
	appenderAgrees(t, tt, tup, prefix)
}

// firstSub returns the first sub-tuple of t, depth first, and its schema.
func firstSub(tt *TupleType, t Tuple) (*Tuple, *TupleType) {
	for i, a := range tt.Attrs {
		if subs := t.Vals[i].Tuples(); a.Type.Kind == Rel && len(subs) > 0 {
			return &subs[0], a.Type.Elem
		}
	}
	return nil, nil
}

// overfill replaces the first String of t (depth first) by one a byte over
// its capacity, in place; it reports whether there was one.
func overfill(tt *TupleType, t Tuple) bool {
	for i, a := range tt.Attrs {
		switch a.Type.Kind {
		case String:
			t.Vals[i] = StringValue(strings.Repeat("x", a.Type.Size+1))
			return true
		case Rel:
			for _, sub := range t.Vals[i].Tuples() {
				if overfill(a.Type.Elem, sub) {
					return true
				}
			}
		}
	}
	return false
}

// Property: the Appender ≡ AppendEncode — bytes and error class — over
// random schemas and tuples, each defect AppendEncode rejects included.
func TestQuickAppenderAgreesWithAppendEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 2000; trial++ {
		appenderCase(t, rng.Int63(), uint8(trial), uint8(rng.Intn(256)))
	}
	for trial := 0; trial < 300; trial++ { // the fixed three-level schema of the other properties
		appenderAgrees(t, quickSchema, randTuple(quickSchema, rng, 2), nil)
	}
}

// FuzzAppender holds the same property on whatever seeds the fuzzer finds.
func FuzzAppender(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed, uint8(seed), uint8(seed*40))
	}
	f.Fuzz(func(t *testing.T, seed int64, defect, spare uint8) { appenderCase(t, seed, defect, spare) })
}

// TestAppenderSizeLimit: a tuple past 64 KiB is ErrTupleTooLarge whether
// it is the strings or the relation's directory that outgrows it, and the
// prefix comes back.
func TestAppenderSizeLimit(t *testing.T) {
	wide := MustTupleType("Wide", Attr{"K", IntType()}, Attr{"R", RelType(MustTupleType("Cell", Attr{"S", StringType(1000)}))})
	big := NewTuple(IntValue(1), RelValue(make([]Tuple, 70)))
	for i := range big.Vals[1].rel {
		big.Vals[1].rel[i] = NewTuple(StringValue(""))
	}
	appenderAgrees(t, wide, big, []byte("prefix"))
	a := wide.Appender(nil)
	a.Int(1)
	a.Rel(40000, func(int) { t.Fatal("a sub-tuple of a relation that cannot fit was opened") })
	if buf, err := a.Finish(); !errors.Is(err, ErrTupleTooLarge) || len(buf) != 0 {
		t.Fatalf("a 40000-tuple relation: %d bytes, %v; want ErrTupleTooLarge", len(buf), err)
	}
	a = wide.Appender(nil) // the last value that fits, and Finish twice
	a.Int(1)
	a.Rel(0, nil)
	a.Int(2)
	if _, err := a.Finish(); !errors.Is(err, ErrArity) {
		t.Fatalf("a value after the last attribute: %v, want ErrArity", err)
	}
}

// TestAppenderDeepNesting: seven levels deep, two sub-tuples per relation.
func TestAppenderDeepNesting(t *testing.T) {
	tt := MustTupleType("L7", Attr{"K", IntType()})
	tup := NewTuple(IntValue(7))
	for level := 6; level >= 1; level-- {
		tt = MustTupleType(fmt.Sprintf("L%d", level), Attr{"K", IntType()}, Attr{"R", RelType(tt)}, Attr{"S", StringType(3)})
		tup = NewTuple(IntValue(int32(level)), RelValue([]Tuple{tup, tup}), StringValue("ab"))
	}
	appenderAgrees(t, tt, tup, []byte("prefix"))
}

// TestAppenderAllocates nothing beyond dst: into a buffer with room, a
// nested tuple costs zero allocations; from nil, a flat one costs exactly
// the one buffer of its size.
func TestAppenderAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race the counts are the detector's")
	}
	rng := rand.New(rand.NewSource(3))
	tup := randTuple(quickSchema, rng, 2)
	buf := make([]byte, 0, quickSchema.EncodedSize(tup))
	if got := testing.AllocsPerRun(50, func() {
		a := quickSchema.Appender(buf[:0])
		supply(&a, quickSchema, tup)
		if _, err := a.Finish(); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("appending into a sized buffer: %v allocations, want 0", got)
	}
	flat := MustTupleType("Flat", Attr{"K", IntType()}, Attr{"S", StringType(100)})
	var out []byte
	if got := testing.AllocsPerRun(50, func() {
		a := flat.Appender(nil)
		a.Int(1)
		a.Str("x")
		out, _ = a.Finish()
	}); got != 1 || cap(out) < flat.FlatSize() {
		t.Errorf("a flat tuple from nil: %v allocations, cap %d; want 1, >= %d", got, cap(out), flat.FlatSize())
	}
}

// TestSizeArithmetic: FlatSize and NestedSize, fed only fan-outs, give
// EncodedSize for every level of random tuples.
func TestSizeArithmetic(t *testing.T) {
	var size func(tt *TupleType, tup Tuple) int
	size = func(tt *TupleType, tup Tuple) int {
		n, sub := 0, 0
		for i, a := range tt.Attrs {
			if a.Type.Kind == Rel {
				for _, s := range tup.Vals[i].Tuples() {
					n, sub = n+1, sub+size(a.Type.Elem, s)
				}
			}
		}
		if n == 0 && tt.NestedSize(0, 0) != tt.FlatSize() {
			t.Fatalf("%v: NestedSize(0, 0) = %d, FlatSize %d", tt, tt.NestedSize(0, 0), tt.FlatSize())
		}
		got := tt.NestedSize(n, sub)
		if buf, err := tt.Encode(tup); err == nil && len(buf) != got {
			t.Fatalf("%v: arithmetic says %d bytes, Encode wrote %d", tt, got, len(buf))
		}
		return got
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		tt := randSchema(rng, "T", 3)
		size(tt, randTuple(tt, rng, 3))
	}
}
