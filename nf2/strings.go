package nf2

import "unsafe"

// stringsChunk is the size of the buffer a Strings starts when an Add
// finds no reserved room: large enough that the unusable tail of a chunk
// (less than one STR payload) is noise, small enough that a retained
// string pins little besides itself.
const stringsChunk = 8 << 10

// Strings is a packed backing for decoded STR values: a byte arena. Add
// copies a payload to the end of the current buffer and returns it as a
// string over those bytes, so decoding a whole object costs one string
// allocation instead of one per attribute. The zero value is ready to use;
// a Strings must not be copied after use.
//
// A Strings serves one of two lifetimes, and which is up to its owner:
//
//   - Never Reset, its values are owned: a buffer is only ever appended
//     to, never grown in place (a full one is left to the strings cut from
//     it and a fresh one started), so the bytes of a returned string are
//     never written again — values may outlive the Strings and be read
//     from other goroutines while it keeps adding. What a retained string
//     keeps alive is the buffer it was cut from, never more. After Grow(n)
//     the next n bytes added share one buffer: a caller that measures an
//     object with StringBytes first gets one backing of the object's size
//     per object. Without a reservation, strings share fixed 8 KiB chunks
//     with whatever was added before and after them.
//   - Reset between uses, it is scratch: Reset rewinds the current buffer
//     and the next Adds write over it, so every value handed out before is
//     invalid from then on (the caller's contract — "valid until the next
//     call" — is what makes that safe). A scratch Strings reaches the size
//     of the largest use and then allocates nothing. Under the poison build
//     tag Reset overwrites the old values (those of the current buffer)
//     with 0xDB and leaves the buffer behind, so one that was retained
//     reads as garbage from then on instead of as the next use's plausible
//     data.
type Strings struct {
	b     []byte
	spilt int // bytes in the full buffers left behind since the last Reset
}

// Grow reserves room for n more payload bytes: if the current buffer
// cannot hold them, it is left to the strings already cut from it and a
// fresh one of n bytes takes its place.
func (s *Strings) Grow(n int) {
	s.reserve(n, n)
}

// Add appends p to the backing and returns it as a string.
func (s *Strings) Add(p []byte) string {
	if len(p) == 0 {
		return ""
	}
	s.reserve(len(p), max(len(p), stringsChunk))
	start := len(s.b)
	s.b = append(s.b, p...) // within capacity: reserve saw to it
	// The bytes behind the string are rewritten only after a Reset, which
	// by contract ends the life of every value handed out before it.
	return unsafe.String(&s.b[start], len(p))
}

// Reset invalidates every string handed out so far and makes the current
// buffer's whole capacity available again — or, when the last use rolled
// through several buffers, replaces it by one that holds all of that use,
// so a repeated use settles on one buffer and allocates no more.
func (s *Strings) Reset() {
	size := cap(s.b)
	if s.spilt > 0 {
		size = s.spilt + len(s.b)
	}
	if poison {
		for i := range s.b {
			s.b[i] = 0xDB
		}
	}
	if poison || s.spilt > 0 {
		s.b = make([]byte, 0, size)
	}
	s.b, s.spilt = s.b[:0], 0
}

// reserve makes sure need more bytes fit, starting a new buffer of size
// fresh when they do not (never growing the old one, which would move the
// strings already handed out).
func (s *Strings) reserve(need, fresh int) {
	if cap(s.b)-len(s.b) < need {
		s.spilt += len(s.b)
		s.b = make([]byte, 0, fresh)
	}
}
