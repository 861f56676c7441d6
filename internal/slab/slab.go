package slab

// Slab hands out consecutive, non-overlapping slices of chunks it
// allocates. The zero value is ready to use; a Slab must not be copied
// after use and belongs to one goroutine, like the owner that holds it.
type Slab[T any] struct {
	free []T
}

// Cut returns n zeroed elements, capacity-limited to n: cut from the
// current chunk when they fit, and otherwise from a fresh chunk of
// max(n, chunk) elements, leaving the old chunk's tail unused. Cut(0) is
// nil.
func (s *Slab[T]) Cut(n, chunk int) []T {
	if n == 0 {
		return nil
	}
	if n > len(s.free) {
		s.free = make([]T, max(n, chunk))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}
