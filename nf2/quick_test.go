package nf2

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// randTuple draws a random valid tuple for the given schema.
func randTuple(tt *TupleType, rng *rand.Rand, depthBudget int) Tuple {
	vals := make([]Value, len(tt.Attrs))
	for i, a := range tt.Attrs {
		switch a.Type.Kind {
		case Int:
			vals[i] = IntValue(int32(rng.Uint32()))
		case Link:
			vals[i] = LinkValue(int32(rng.Uint32()))
		case String:
			n := rng.Intn(a.Type.Size + 1)
			b := make([]byte, n)
			for j := range b {
				b[j] = byte('a' + rng.Intn(26))
			}
			vals[i] = StringValue(string(b))
		case Rel:
			count := 0
			if depthBudget > 0 {
				count = rng.Intn(5)
			}
			subs := make([]Tuple, count)
			for j := range subs {
				subs[j] = randTuple(a.Type.Elem, rng, depthBudget-1)
			}
			vals[i] = RelValue(subs)
		}
	}
	return Tuple{Vals: vals}
}

// quickTuple adapts randTuple to testing/quick generation.
type quickTuple struct{ T Tuple }

var quickSchema = MustTupleType("Q",
	Attr{"K", IntType()},
	Attr{"S", StringType(30)},
	Attr{"L", LinkType()},
	Attr{"R", RelType(MustTupleType("QInner",
		Attr{"A", IntType()},
		Attr{"B", StringType(12)},
		Attr{"C", RelType(MustTupleType("QLeaf",
			Attr{"V", LinkType()},
			Attr{"W", StringType(4)},
		))},
	))},
)

// Generate implements quick.Generator.
func (quickTuple) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickTuple{T: randTuple(quickSchema, rng, 2)})
}

// Property: every randomly generated valid tuple validates, round-trips
// through Encode/Decode, and EncodedSize predicts the encoding length.
func TestQuickRoundTrip(t *testing.T) {
	f := func(q quickTuple) bool {
		if err := quickSchema.Validate(q.T); err != nil {
			return false
		}
		buf, err := quickSchema.Encode(q.T)
		if err != nil {
			return false
		}
		if len(buf) != quickSchema.EncodedSize(q.T) {
			return false
		}
		out, err := quickSchema.Decode(buf)
		if err != nil {
			return false
		}
		return quickSchema.Equal(q.T, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: partial attribute decoding agrees with full decoding for every
// attribute position.
func TestQuickDecodeAttrAgreesWithDecode(t *testing.T) {
	f := func(q quickTuple) bool {
		buf, err := quickSchema.Encode(q.T)
		if err != nil {
			return false
		}
		full, err := quickSchema.Decode(buf)
		if err != nil {
			return false
		}
		for i := range quickSchema.Attrs {
			v, err := quickSchema.DecodeAttr(buf, i)
			if err != nil {
				return false
			}
			probe := Tuple{Vals: make([]Value, len(quickSchema.Attrs))}
			copy(probe.Vals, full.Vals)
			probe.Vals[i] = v
			if !quickSchema.Equal(full, probe) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding never panics on arbitrary byte garbage (it may error).
func TestQuickDecodeGarbageNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %v: %v", data, r)
			}
		}()
		_, _ = quickSchema.Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping a single byte of a valid encoding either errors or
// yields a tuple that still validates (no memory-unsafe behaviour, no
// panic). This guards the bounds checks in DecodeAttr.
func TestQuickSingleByteCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randTuple(quickSchema, rng, 2)
	buf, err := quickSchema.Encode(base)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		c := make([]byte, len(buf))
		copy(c, buf)
		c[rng.Intn(len(c))] ^= byte(1 + rng.Intn(255))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corrupted buffer: %v", r)
				}
			}()
			if out, err := quickSchema.Decode(c); err == nil {
				if err := quickSchema.Validate(out); err != nil {
					t.Fatalf("decoded invalid tuple without error: %v", err)
				}
			}
		}()
	}
}

// Property: AppendEncode(prefix, t) is prefix ‖ Encode(t) — the prefix
// untouched, the appended bytes those of Encode — and it fails exactly
// when Encode fails, with the same error, handing the prefix back.
func TestQuickAppendEncodeAgreesWithEncode(t *testing.T) {
	agree := func(tt *TupleType, tup Tuple, prefix []byte) bool {
		kept := append([]byte(nil), prefix...)
		want, wantErr := tt.Encode(tup)
		got, gotErr := tt.AppendEncode(prefix, tup)
		if wantErr != nil || gotErr != nil {
			return wantErr != nil && gotErr != nil && wantErr.Error() == gotErr.Error() &&
				want == nil && bytes.Equal(got, kept)
		}
		return bytes.Equal(got[:len(kept)], kept) && bytes.Equal(got[len(kept):], want) &&
			bytes.Equal(prefix, kept)
	}
	f := func(q quickTuple, prefix []byte, spare uint8, breakIt uint8) bool {
		// Room to append in place, or none: both must give the same bytes.
		prefix = append(make([]byte, 0, len(prefix)+int(spare)*8), prefix...)
		tup := q.T
		switch breakIt % 4 {
		case 1: // a string over its declared capacity
			tup = Tuple{Vals: append([]Value(nil), tup.Vals...)}
			tup.Vals[1] = StringValue(strings.Repeat("x", 31))
		case 2: // wrong arity
			tup = Tuple{Vals: tup.Vals[:2]}
		}
		return agree(quickSchema, tup, prefix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	// The size limit: a relation that encodes past 64 KiB.
	wide := MustTupleType("Wide", Attr{"R", RelType(MustTupleType("Cell", Attr{"S", StringType(1000)}))})
	big := NewTuple(RelValue(make([]Tuple, 70)))
	for i := range big.Vals[0].rel {
		big.Vals[0].rel[i] = NewTuple(StringValue(""))
	}
	if _, err := wide.Encode(big); !errors.Is(err, ErrTupleTooLarge) {
		t.Fatalf("oversized tuple: %v, want ErrTupleTooLarge", err)
	}
	if !agree(wide, big, []byte("prefix")) {
		t.Error("AppendEncode and Encode disagree on an oversized tuple")
	}
}
