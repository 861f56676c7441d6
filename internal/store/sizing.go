package store

import (
	"complexobj/cobench"
	"complexobj/nf2"
)

// The sizing pass of a bulk load. Before it inserts anything, every
// model's Load walks the extension, counts the pages its inserts will
// allocate and reserves them on the device in one piece (Disk.Reserve), so
// a loaded arena is allocated once at the size it ends with instead of
// being grown by doubling. Nothing here knows a size. Tuple sizes are
// nf2's own EncodedSize applied to hollow tuples — STR attributes are
// fixed-width, so the fan-outs are all EncodedSize reads of a tuple — and
// page counts come from the sizers of heap and longobj, which share their
// arithmetic with the insert paths. A pass that misses something (the
// counted-index ablation builds B+-trees it does not see) costs only the
// device's fallback growth, never correctness.

// flatSize returns the encoded size of every tuple of a flat type.
func flatSize(tt *nf2.TupleType) int { return tt.EncodedSize(nf2.Tuple{}) }

// hollow returns a tuple of tt's arity with nothing in it but subs under
// the relation attribute rel.
func hollow(tt *nf2.TupleType, rel int, subs []nf2.Tuple) nf2.Tuple {
	vals := make([]nf2.Value, len(tt.Attrs))
	vals[rel] = nf2.RelValue(subs)
	return nf2.Tuple{Vals: vals}
}

// nestedSize returns the encoded size of a tt tuple whose relation
// attribute rel nests n flat sub-tuples.
func nestedSize(tt *nf2.TupleType, rel, n int) int {
	return tt.EncodedSize(hollow(tt, rel, make([]nf2.Tuple, n)))
}

// componentsSize returns the number of direct-storage components of s and
// their total encoded bytes (what direct.components produces).
func componentsSize(s *cobench.Station) (n, total int) {
	total = flatSize(RootType) + len(s.Seeings)*flatSize(cobench.SightseeingType)
	for _, p := range s.Platforms {
		total += nestedSize(cobench.PlatformType, cobench.PlConns, len(p.Conns))
	}
	return 1 + len(s.Platforms) + len(s.Seeings), total
}

// dnsmSizes returns the encoded bytes of the four nested tuples of s, by
// relation slot (what dnsm.tuples produces).
func dnsmSizes(s *cobench.Station) [4]int {
	groups := make([]nf2.Tuple, len(s.Platforms))
	for i, p := range s.Platforms {
		groups[i] = hollow(dnsmGroupElem, 1, make([]nf2.Tuple, len(p.Conns)))
	}
	return [4]int{
		dnsmStation:     flatSize(dnsmStationType),
		dnsmPlatform:    nestedSize(dnsmPlatformType, 1, len(s.Platforms)),
		dnsmConnection:  dnsmConnectionType.EncodedSize(hollow(dnsmConnectionType, 1, groups)),
		dnsmSightseeing: nestedSize(dnsmSightseeingType, 1, len(s.Seeings)),
	}
}
