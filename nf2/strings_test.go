package nf2

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// packedAgrees checks the Record contract against the oracle, plain
// DecodeAttr, on one encoding (valid or not): per Int, Link and String
// attribute the same error or an equal value — Strings packed — and
// StringBytes measuring exactly the String bytes a full decode yields.
func packedAgrees(t testing.TB, tt *TupleType, buf []byte) {
	t.Helper()
	var strs Strings
	rec, oerr := tt.Open(buf)
	for i, a := range tt.Attrs {
		want, werr := tt.DecodeAttr(buf, i)
		var got Value
		gerr := oerr
		switch {
		case oerr != nil:
		case a.Type.Kind == String:
			var s string
			s, gerr = rec.Str(i, &strs)
			got = StringValue(s)
		case a.Type.Kind == Rel:
			if _, err := rec.Int(i); err == nil {
				t.Fatalf("%s: Record.Int accepted a relation attribute", a.Name)
			}
			continue
		default:
			var v int32
			v, gerr = rec.Int(i)
			got = Value{kind: a.Type.Kind, i: v}
		}
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("%s: DecodeAttr err %v, Record err %v on %x", a.Name, werr, gerr, buf)
		}
		if werr == nil && !valueEqual(a.Type, want, got) {
			t.Fatalf("%s: DecodeAttr %v, Record %v on %x", a.Name, want, got, buf)
		}
	}
	full, err := tt.Decode(buf)
	n, serr := tt.StringBytes(buf)
	if err != nil {
		return // StringBytes may accept what an Int attribute it skips rejects
	}
	if serr != nil || n != stringBytesOf(tt, full) {
		t.Fatalf("StringBytes = %d, %v; decoded tuple holds %d on %x", n, serr, stringBytesOf(tt, full), buf)
	}
	// The nested levels hold the same contract.
	for i, a := range tt.Attrs {
		if a.Type.Kind == Rel {
			err := tt.VisitRel(buf, i, func(_, _ int, elem []byte) error {
				packedAgrees(t, a.Type.Elem, elem)
				return nil
			})
			if err != nil {
				t.Fatalf("%s: VisitRel failed on a tuple Decode accepted: %v", a.Name, err)
			}
		}
	}
}

func valueEqual(ty Type, a, b Value) bool {
	probe := MustTupleType("probe", Attr{Name: "v", Type: ty})
	return probe.Equal(NewTuple(a), NewTuple(b))
}

func stringBytesOf(tt *TupleType, t Tuple) int {
	n := 0
	for i, a := range tt.Attrs {
		switch a.Type.Kind {
		case String:
			n += len(t.Vals[i].Str())
		case Rel:
			for _, sub := range t.Vals[i].Tuples() {
				n += stringBytesOf(a.Type.Elem, sub)
			}
		}
	}
	return n
}

// Property: Record reads ≡ plain DecodeAttr for every attribute, on random
// valid encodings and on every single-byte corruption pattern drawn.
func TestQuickRecordAgreesWithDecodeAttr(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		buf, err := quickSchema.Encode(randTuple(quickSchema, rng, 2))
		if err != nil {
			t.Fatal(err)
		}
		packedAgrees(t, quickSchema, buf)
		for c := 0; c < 20; c++ {
			bad := bytes.Clone(buf)
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
			packedAgrees(t, quickSchema, bad)
		}
		packedAgrees(t, quickSchema, buf[:rng.Intn(len(buf))])
	}
}

// FuzzRecord holds the same contract on arbitrary bytes.
func FuzzRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(1993))
	for i := 0; i < 4; i++ {
		buf, err := quickSchema.Encode(randTuple(quickSchema, rng, 2))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		bad := bytes.Clone(buf)
		bad[len(bad)/2] ^= 0xff
		f.Add(bad)
		f.Add(buf[:len(buf)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) { packedAgrees(t, quickSchema, buf) })
}

// TestStringsBacking pins what Strings promises: values are never written
// again, a measured reservation is one allocation however many strings are
// cut from it, and unreserved adds share chunks.
func TestStringsBacking(t *testing.T) {
	payload := []byte("Hauptbahnhof")
	var s Strings
	first := s.Add(payload)
	for i := 0; i < 5000; i++ { // rolls through several chunks
		s.Add([]byte("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
	}
	if first != "Hauptbahnhof" || s.Add(nil) != "" {
		t.Fatalf("retained string changed: %q", first)
	}

	var kept [10]string
	var exact Strings // a reservation only starts a buffer when the current one is too small
	measured := testing.AllocsPerRun(100, func() {
		exact.Grow(len(kept) * len(payload))
		for i := range kept {
			kept[i] = exact.Add(payload)
		}
	})
	if measured != 1 {
		t.Errorf("10 strings under one reservation cost %v allocations, want 1", measured)
	}
	if strings.Join(kept[:], "") != strings.Repeat("Hauptbahnhof", len(kept)) {
		t.Errorf("reserved strings = %q", kept)
	}

	chunked := testing.AllocsPerRun(100, func() {
		for i := range kept {
			kept[i] = s.Add(payload)
		}
	})
	if chunked > 0.1 { // 120 bytes per run out of 8 KiB chunks
		t.Errorf("unreserved adds cost %v allocations per 10 strings", chunked)
	}
}

// TestStringsReset pins the scratch lifetime: between Resets values read
// back what was added; a repeated use — measured (Reset, Grow, Adds) or
// chunked through several buffers — settles on one buffer and allocates
// nothing more; and under the poison tag a value kept across a Reset reads
// 0xDB, not the next use's bytes.
func TestStringsReset(t *testing.T) {
	payload := []byte("Hauptbahnhof")
	var kept [10]string
	var s Strings
	measured := func() {
		s.Reset()
		s.Grow(len(kept) * len(payload))
		for i := range kept {
			kept[i] = s.Add(payload)
		}
	}
	chunked := func() { // 40 KiB: five chunks on the first pass
		s.Reset()
		for i := 0; i < 40<<10/len(payload); i++ {
			kept[i%len(kept)] = s.Add(payload)
		}
	}
	for name, use := range map[string]func(){"measured": measured, "chunked": chunked} {
		use() // sizes the buffer; a chunked first pass spills
		use() // Reset consolidates what spilt
		if got := testing.AllocsPerRun(20, use); got != 0 && !poison {
			t.Errorf("%s: a repeated use costs %v allocations, want 0", name, got)
		}
		if strings.Join(kept[:], "") != strings.Repeat("Hauptbahnhof", len(kept)) {
			t.Errorf("%s: values read %q", name, kept)
		}
	}
	old := kept[0]
	s.Reset()
	fresh := s.Add([]byte("Zoologischer"))
	if fresh != "Zoologischer" {
		t.Errorf("after Reset, Add returned %q", fresh)
	}
	if poison && old != strings.Repeat("\xdb", len(payload)) {
		t.Errorf("poison build: a value kept across Reset reads %q", old)
	}
}
