// Package slab cuts many small slices from a few large arrays, so an owner
// that needs one short array per object — a generated station's platforms,
// connections and sightseeings, an NSM object's tuple positions, a buffer
// pool's frames — allocates once per chunk instead of once per object.
//
// The rule that makes sharing a chunk safe is the one Cut enforces: every
// slice it returns is capacity-limited to its own length (s[:n:n]), so an
// append reallocates instead of writing into a neighbour. A Slab belongs to
// one owner and is never shared — two owners cutting from one chunk would
// hand out the same elements twice. A retained slice keeps its whole chunk
// alive, as a string cut from an nf2.Strings keeps its buffer.
//
// An owner whose arrays die together — a generated extension — can have
// its Slabs draw from a Free list and give every chunk back at once
// (Release), for the next owner to cut again; the chunks then outlive their
// slices, and keeping a slice past Release reads the next owner's data.
package slab
