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
