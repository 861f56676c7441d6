package nf2

import "strings"

// stringsChunk is the size of the backing a Strings starts when an Add
// finds no reserved room: large enough that the unusable tail of a chunk
// (less than one STR payload) is noise, small enough that a retained
// string pins little besides itself.
const stringsChunk = 8 << 10

// Strings is a packed backing for decoded STR values: Add copies a payload
// to the end of one shared buffer and returns the substring, so decoding a
// whole object costs one string allocation instead of one per attribute.
// The zero value is ready to use; a Strings must not be copied after use.
//
// What a retained string keeps alive is the buffer it was cut from, never
// more. After Grow(n) the next n bytes added share one buffer: a caller
// that measures an object with StringBytes first gets one backing of the
// object's size (plus the allocator's rounding) per object, and keeping any
// of its strings keeps that object's. Without a reservation, strings share
// fixed 8 KiB chunks with whatever was added before and after them. The
// bytes of a returned string are never written again, so values may outlive
// the Strings and be read from other goroutines while it keeps adding.
type Strings struct {
	b strings.Builder
}

// Grow reserves room for n more payload bytes: if the current buffer
// cannot hold them, it is left to the strings already cut from it and a
// fresh one of n bytes takes its place.
func (s *Strings) Grow(n int) {
	s.reserve(n, n)
}

// Add appends p to the backing and returns it as a string. A nil Strings
// gives every value its own allocation.
func (s *Strings) Add(p []byte) string {
	if s == nil || len(p) == 0 {
		return string(p)
	}
	s.reserve(len(p), max(len(p), stringsChunk))
	start := s.b.Len()
	s.b.Write(p)
	return s.b.String()[start:]
}

// reserve makes sure need more bytes fit, starting a new buffer of size
// fresh when they do not (never growing the old one, which would copy the
// strings already handed out).
func (s *Strings) reserve(need, fresh int) {
	if s.b.Cap()-s.b.Len() < need {
		s.b = strings.Builder{}
		s.b.Grow(fresh)
	}
}
