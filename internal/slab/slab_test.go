package slab

import (
	"testing"
	"unsafe"
)

// follows reports whether b starts right after a ends, in one array.
func follows[T any](a, b []T) bool {
	var zero T
	end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(a)), uintptr(len(a))*unsafe.Sizeof(zero))
	return end == unsafe.Pointer(unsafe.SliceData(b))
}

func TestCutIsCapacityLimited(t *testing.T) {
	var s Slab[int]
	a := s.Cut(3, 8)
	b := s.Cut(2, 8)
	if len(a) != 3 || cap(a) != 3 || len(b) != 2 || cap(b) != 2 {
		t.Fatalf("len/cap a=%d/%d b=%d/%d, want 3/3 2/2", len(a), cap(a), len(b), cap(b))
	}
	if !follows(a, b) {
		t.Fatal("consecutive cuts do not share one chunk")
	}
	b[0] = 7
	a = append(a, 1)
	if b[0] != 7 || a[3] != 1 {
		t.Fatal("an append to a cut wrote into the cut after it")
	}
}

func TestCutChunks(t *testing.T) {
	var s Slab[byte]
	if got := s.Cut(0, 4); got != nil {
		t.Fatalf("Cut(0) = %v, want nil", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s = Slab[byte]{}
		for range 16 {
			s.Cut(1, 16)
		}
	})
	if allocs != 1 {
		t.Fatalf("16 one-element cuts of a 16-element chunk allocate %.1f, want 1", allocs)
	}
	if big := s.Cut(9, 4); len(big) != 9 || cap(big) != 9 {
		t.Fatalf("a cut larger than the chunk has len/cap %d/%d, want 9/9", len(big), cap(big))
	}
}

// TestReleaseRecycles: the chunks a Slab drew come back through its Free
// list to the next Slab, zeroed as fresh ones are, best fit first; only
// the chunks no free one fitted count as made, and a scrub sees every
// chunk given back.
func TestReleaseRecycles(t *testing.T) {
	var f Free[int]
	var a Slab[int]
	a.DrawFrom(&f)
	big, small := a.Cut(20, 20), a.Cut(3, 4) // a 20- and a 4-element chunk
	for i := range big {
		big[i] = 7
	}
	small[0] = 7
	if made := f.MadeBytes(); made != 24*int64(unsafe.Sizeof(0)) {
		t.Fatalf("made %d bytes, want two chunks of 24 ints", made)
	}
	scrubbed := 0
	a.Release(func(c []int) { scrubbed += len(c) })
	if scrubbed != 24 {
		t.Fatalf("scrub saw %d elements, want 24", scrubbed)
	}
	var b Slab[int]
	b.DrawFrom(&f)
	got := b.Cut(2, 2)
	if cap(got) != 2 || &got[0] != &small[0] || got[0] != 0 {
		t.Fatalf("a 2-element cut got %v (cap %d) at %p, want the zeroed 4-element chunk %p", got, cap(got), &got[0], &small[0])
	}
	got = b.Cut(10, 4)
	if &got[0] != &big[0] || got[0] != 0 || got[9] != 0 {
		t.Fatalf("a 10-element cut got %v, want the zeroed 20-element chunk", got)
	}
	if made := f.MadeBytes(); made != 24*int64(unsafe.Sizeof(0)) {
		t.Errorf("recycled cuts made %d bytes, want none beyond the first 24 ints", made)
	}
	var plain Slab[int]
	plain.Cut(1, 1)
	plain.Release(nil) // draws from no list: nothing to give back
	if len(f.chunks) != 0 {
		t.Errorf("the list holds %d chunks while b holds both", len(f.chunks))
	}
}
