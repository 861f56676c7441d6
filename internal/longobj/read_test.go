package longobj

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"complexobj/internal/buffer"
	"complexobj/internal/disk"
	"complexobj/internal/iostat"
	"complexobj/internal/xrand"
)

// counters is what one read leaves on the engine: device calls and pages,
// buffer fixes and hits.
func counters(d *disk.Disk, p *buffer.Pool) iostat.Stats {
	st := d.Stats()
	st.BufferFixes, st.BufferHits = p.Fixes(), p.Hits()
	return st
}

// measured runs read cold, then again warm, and returns what each left on
// the counters and an owned copy of the (second) result.
func measured(t *testing.T, d *disk.Disk, p *buffer.Pool, read func() ([]Component, []int, error)) (cold, warm iostat.Stats, comps []Component, idxs []int) {
	t.Helper()
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*iostat.Stats{&cold, &warm} {
		d.ResetStats()
		p.ResetStats()
		lent, lentIdxs, err := read()
		if err != nil {
			t.Fatal(err)
		}
		*st = counters(d, p)
		comps, idxs = comps[:0], slices.Clone(lentIdxs)
		for _, c := range lent {
			comps = append(comps, Component{Tag: c.Tag, Data: slices.Clone(c.Data)})
		}
	}
	return cold, warm, comps, idxs
}

// partialCost is the oracle for a cold partial read: the header pages with
// one call, then the data pages holding a byte of a selected component,
// one call per contiguous run of them.
func partialCost(ref Ref, eff int, comps []Component, selected func(i int) bool) iostat.Stats {
	if ref.Small {
		return iostat.Stats{ReadCalls: 1, PagesRead: 1, BufferFixes: 1}
	}
	needed := make([]bool, ref.DataPages)
	off := 0
	for i, c := range comps {
		for pos := off; selected(i) && pos < off+len(c.Data); pos++ {
			needed[pos/eff] = true
		}
		off += len(c.Data)
	}
	st := iostat.Stats{ReadCalls: 1, PagesRead: int64(ref.HeaderPages)}
	for pg, need := range needed {
		if !need {
			continue
		}
		st.PagesRead++
		if pg == 0 || !needed[pg-1] {
			st.ReadCalls++
		}
	}
	st.BufferFixes = st.PagesRead
	return st
}

// TestReadSeparatesTransferredFromCopied is the contract of Read over
// random objects — inline, one header page, several header pages,
// components straddling page boundaries — and random selections: what is
// copied out is what want selects, and what is transferred depends on whole
// alone (every page, as a read of everything) or on the selection (today's
// partial read: header plus the pages holding selected bytes).
func TestReadSeparatesTransferredFromCopied(t *testing.T) {
	rng := xrand.New(24)
	d, pool, s := newStore(t, 64)
	eff := d.EffectivePageSize()
	shapes := []struct {
		name         string
		comps, bytes int // at most
	}{
		{"inline", 6, 300},
		{"one header page", 12, eff + eff/2},
		{"several header pages", 3 * eff / dirEntry, 40},
	}
	for _, shape := range shapes {
		for obj := 0; obj < 8; obj++ {
			n := shape.comps/2 + rng.Intn(shape.comps/2) + 1
			comps := make([]Component, n)
			for i := range comps {
				comps[i] = comp(uint8(rng.Intn(3)), byte(rng.Intn(256)), rng.Intn(shape.bytes))
			}
			ref, err := s.Insert(comps)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Small != (shape.name == "inline") || (shape.name == "several header pages") != (ref.HeaderPages > 1) {
				t.Fatalf("%s: laid out as %+v", shape.name, ref)
			}
			allCold, allWarm, all, allIdxs := measured(t, d, pool, func() ([]Component, []int, error) { return s.Read(ref, true, nil) })
			if !equalComps(all, comps) || len(allIdxs) != n || allIdxs[n-1] != n-1 {
				t.Fatalf("%s: whole read of everything: %d components, idxs %v", shape.name, len(all), allIdxs)
			}
			for sel := 0; sel < 6; sel++ {
				mask := make([]bool, n)
				for i := range mask {
					mask[i] = []bool{rng.Bool(0.5), true, false, i == n/2, i%7 == 0, rng.Bool(0.1)}[sel]
				}
				want := func(tag uint8, i int) bool {
					if tag != comps[i].Tag {
						t.Errorf("want called with tag %d for component %d, tag %d", tag, i, comps[i].Tag)
					}
					return mask[i]
				}
				var selected []Component
				var selectedIdxs []int
				for i, c := range comps {
					if mask[i] {
						selected, selectedIdxs = append(selected, c), append(selectedIdxs, i)
					}
				}
				cold, warm, got, idxs := measured(t, d, pool, func() ([]Component, []int, error) { return s.Read(ref, true, want) })
				if !equalComps(got, selected) || !slices.Equal(idxs, selectedIdxs) {
					t.Errorf("%s, selection %d: whole read copied out idxs %v, want %v", shape.name, sel, idxs, selectedIdxs)
				}
				if cold != allCold || warm != allWarm {
					t.Errorf("%s, selection %d: whole read transferred %v / %v, a read of everything %v / %v",
						shape.name, sel, cold, warm, allCold, allWarm)
				}
				cold, warm, got, idxs = measured(t, d, pool, func() ([]Component, []int, error) { return s.Read(ref, false, want) })
				if !equalComps(got, selected) || !slices.Equal(idxs, selectedIdxs) {
					t.Errorf("%s, selection %d: partial read copied out idxs %v, want %v", shape.name, sel, idxs, selectedIdxs)
				}
				wantCold := partialCost(ref, eff, comps, func(i int) bool { return mask[i] })
				wantWarm := iostat.Stats{BufferFixes: wantCold.BufferFixes, BufferHits: wantCold.BufferFixes}
				if cold != wantCold || warm != wantWarm {
					t.Errorf("%s, selection %d: partial read transferred %v / %v, want %v / %v",
						shape.name, sel, cold, warm, wantCold, wantWarm)
				}
			}
		}
	}
}

// patchDirectory overwrites bytes of a large object's directory at offset
// pos of the header byte stream, through the pool like any other write.
func patchDirectory(t *testing.T, d *disk.Disk, pool *buffer.Pool, ref Ref, pos int, b []byte) {
	t.Helper()
	eff := d.EffectivePageSize()
	for i := range b {
		id := ref.Start + disk.PageID((pos+i)/eff)
		f, err := pool.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		pool.MarkDirty(f)
		f.Data[disk.SysHeaderSize+(pos+i)%eff] = b[i]
		if err := pool.Unfix(id, true); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptEntryIsAnErrorOnEveryRead: an entry reaching beyond the data
// area is ErrBadRef whether or not the read selects it (a partial read
// that did not used to skip it silently).
func TestCorruptEntryIsAnErrorOnEveryRead(t *testing.T) {
	d, pool, s := newStore(t, 16)
	ref, err := s.Insert([]Component{comp(0, 1, 1500), comp(1, 2, 2500), comp(2, 3, 1200)})
	if err != nil {
		t.Fatal(err)
	}
	var length [4]byte
	binary.BigEndian.PutUint32(length[:], uint32(int(ref.DataPages)*d.EffectivePageSize())) // from offset 4000: beyond
	patchDirectory(t, d, pool, ref, dirPrologue+dirEntry*2+5, length[:])
	first := func(_ uint8, i int) bool { return i == 0 }
	for name, read := range map[string]func() ([]Component, []int, error){
		"whole, everything": func() ([]Component, []int, error) { return s.Read(ref, true, nil) },
		"whole, first":      func() ([]Component, []int, error) { return s.Read(ref, true, first) },
		"partial, first":    func() ([]Component, []int, error) { return s.Read(ref, false, first) },
	} {
		if _, _, err := read(); !errors.Is(err, ErrBadRef) {
			t.Errorf("%s: err = %v, want ErrBadRef", name, err)
		}
	}
}

// TestOversizedCountIsBadRef: a component count larger than the header
// pages hold caps the directory copy at those pages — nothing is sized
// from it — and the first entry past them is ErrBadRef.
func TestOversizedCountIsBadRef(t *testing.T) {
	d, pool, s := newStore(t, 16)
	ref, err := s.Insert([]Component{comp(0, 1, 1500), comp(1, 2, 2500)})
	if err != nil {
		t.Fatal(err)
	}
	patchDirectory(t, d, pool, ref, 0, []byte{0xFF, 0xFF})
	for _, whole := range []bool{true, false} {
		if _, _, err := s.Read(ref, whole, nil); !errors.Is(err, ErrBadRef) {
			t.Errorf("whole=%v: err = %v, want ErrBadRef", whole, err)
		}
	}
	if _, err := s.ChangeComponent(ref, 1, make([]byte, 2500)); err != nil {
		t.Errorf("ChangeComponent below the real count: %v", err)
	}
	if got, most := cap(s.hdrScratch), int(ref.HeaderPages)*d.EffectivePageSize(); got > most {
		t.Errorf("header scratch grew to %d bytes for %d header page(s) of %d", got, ref.HeaderPages, most)
	}
	if _, _, err := s.Read(Ref{Start: ref.Start, DataPages: ref.DataPages}, true, nil); !errors.Is(err, ErrBadRef) {
		t.Errorf("ref without header pages: err = %v, want ErrBadRef", err)
	}
}

// FuzzRead feeds Read arbitrary directories: patch is written over the
// header of a three-page object at pos and, separately, decoded as an
// inline record. A read may fail, with ErrBadRef; it may not panic, and
// what it returns must be cut from scratch sized by checked lengths.
func FuzzRead(f *testing.F) {
	var beyond [4]byte
	binary.BigEndian.PutUint32(beyond[:], 3*2012)
	f.Add(beyond[:], uint16(dirPrologue+dirEntry*2+5), true, uint8(1))  // TestCorruptEntryIsAnErrorOnEveryRead
	f.Add(beyond[:], uint16(dirPrologue+dirEntry*2+5), false, uint8(1)) // the path that used to skip it
	f.Add([]byte{0xFF, 0xFF}, uint16(0), true, uint8(0xFF))             // TestOversizedCountIsBadRef
	f.Add([]byte{0, 2, 0, 0, 3, 1, 0, 2, 'a', 'b', 'c', 'd', 'e'}, uint16(0), false, uint8(2))
	f.Add([]byte{0, 1, 7, 0xFF, 0xFF}, uint16(2000), true, uint8(0))
	f.Fuzz(func(t *testing.T, patch []byte, pos uint16, whole bool, mask uint8) {
		d, pool, s := newStore(t, 16)
		eff := d.EffectivePageSize()
		ref, err := s.Insert([]Component{comp(0, 1, 1500), comp(1, 2, 2500), comp(2, 3, 1200)})
		if err != nil {
			t.Fatal(err)
		}
		if len(patch) > eff {
			patch = patch[:eff]
		}
		patchDirectory(t, d, pool, ref, int(pos)%(eff-len(patch)+1), patch)
		want := func(_ uint8, i int) bool { return mask>>(i%8)&1 == 1 }
		check := func(comps []Component, idxs []int, err error, most int) {
			if err != nil {
				if !errors.Is(err, ErrBadRef) {
					t.Fatalf("err = %v, want ErrBadRef", err)
				}
				return
			}
			if len(comps) != len(idxs) {
				t.Fatalf("%d components, %d indices", len(comps), len(idxs))
			}
			for _, c := range comps {
				if len(c.Data) > most {
					t.Fatalf("component of %d bytes from %d bytes of object", len(c.Data), most)
				}
			}
		}
		comps, idxs, err := s.Read(ref, whole, want)
		check(comps, idxs, err, int(ref.DataPages)*eff)
		comps, idxs, err = s.decodeInline(patch, want)
		check(comps, idxs, err, len(patch))
	})
}

// BenchmarkLongobjRead prices the three reads the direct models issue on a
// 6 KiB object (one root component plus eight 750-byte parts, the bench
// probe's shape) in a warm pool: everything, the root of a whole read, the
// root of a partial read. Allocations are pinned at zero; ns/op is where a
// reintroduced copy shows.
func BenchmarkLongobjRead(b *testing.B) {
	d := disk.New()
	s := New(d, buffer.New(d, 16, buffer.LRU), "bench")
	comps := []Component{{Tag: 0, Data: make([]byte, 120)}}
	for i := 0; i < 8; i++ {
		comps = append(comps, Component{Tag: 1, Data: make([]byte, 750)})
	}
	ref, err := s.Insert(comps)
	if err != nil {
		b.Fatal(err)
	}
	root := func(tag uint8, _ int) bool { return tag == 0 }
	for _, bc := range []struct {
		name  string
		whole bool
		want  func(uint8, int) bool
	}{
		{"whole-all", true, nil},
		{"whole-root", true, root},
		{"parts-root", false, root},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Read(ref, bc.whole, bc.want); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
