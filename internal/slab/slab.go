package slab

import (
	"sync"
	"unsafe"
)

// Slab hands out consecutive, non-overlapping slices of chunks it
// allocates, or draws from a Free list. The zero value is ready to use and
// allocates its chunks with make; a Slab must not be copied after use
// (moving it to its next owner is fine) and belongs to one goroutine,
// like the owner that holds it.
type Slab[T any] struct {
	free   []T
	from   *Free[T] // nil: chunks are made, and left to the collector
	chunks [][]T    // the chunks drawn from from, for Release
}

// DrawFrom makes f the source of s's chunks, and the list Release gives
// them back to. Call it before the first Cut.
func (s *Slab[T]) DrawFrom(f *Free[T]) { s.from = f }

// Cut returns n zeroed elements, capacity-limited to n: cut from the
// current chunk when they fit, and otherwise from a fresh chunk of at
// least max(n, chunk) elements, leaving the old chunk's tail unused. Cut(0)
// is nil.
func (s *Slab[T]) Cut(n, chunk int) []T {
	if n == 0 {
		return nil
	}
	if n > len(s.free) {
		if s.from == nil {
			s.free = make([]T, max(n, chunk))
		} else {
			s.free = s.from.take(max(n, chunk), &s.chunks)
		}
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// Release gives every chunk s drew back to its Free list, calling scrub
// (when non-nil) on each first, and leaves s empty. Every slice cut from
// them must be dead by then: the next Slab to draw a chunk cuts it again.
// A Slab that draws from no list has nothing to give back.
func (s *Slab[T]) Release(scrub func([]T)) {
	if s.from != nil {
		if scrub != nil {
			for _, c := range s.chunks {
				scrub(c)
			}
		}
		s.from.put(s.chunks)
	}
	s.free, s.chunks = nil, nil
}

// Free is a free list of chunks: the Slabs that draw from it take their
// chunks from it and give them back at Release, for the next Slab to cut
// again. It is safe for concurrent use, so the Slabs of several owners can
// share one. The zero value is ready to use.
type Free[T any] struct {
	mu     sync.Mutex
	chunks [][]T
	lists  [][][]T // emptied chunk lists of released Slabs, for the next
	made   int64   // bytes of the chunks take had to allocate
}

// take appends to list, and returns, a zeroed chunk of at least n
// elements: the smallest free one that fits, or a new one when none does.
// A Slab's first chunk starts its list on a spare one.
func (f *Free[T]) take(n int, list *[][]T) []T {
	f.mu.Lock()
	if *list == nil && len(f.lists) > 0 {
		*list, f.lists = f.lists[len(f.lists)-1], f.lists[:len(f.lists)-1]
	}
	best := -1
	for i, c := range f.chunks {
		if len(c) >= n && (best < 0 || len(c) < len(f.chunks[best])) {
			if best = i; len(c) == n {
				break
			}
		}
	}
	var c []T
	if best < 0 {
		var zero T
		f.made += int64(n) * int64(unsafe.Sizeof(zero))
		f.mu.Unlock()
		c = make([]T, n)
	} else {
		last := len(f.chunks) - 1
		c, f.chunks[best], f.chunks[last] = f.chunks[best], f.chunks[last], nil
		f.chunks = f.chunks[:last]
		f.mu.Unlock()
		clear(c)
	}
	*list = append(*list, c)
	return c
}

// put takes back a Slab's chunks, and the list that held them.
func (f *Free[T]) put(list [][]T) {
	if len(list) == 0 {
		return
	}
	f.mu.Lock()
	f.chunks = append(f.chunks, list...)
	clear(list)
	f.lists = append(f.lists, list[:0])
	f.mu.Unlock()
}

// MadeBytes returns the bytes of the chunks f allocated because none it
// held fitted: the memory its Slabs drew fresh rather than again.
func (f *Free[T]) MadeBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.made
}
