package store

import (
	"complexobj/cobench"
	"complexobj/nf2"
)

// The sizing pass of a bulk load. Before it inserts anything, every
// model's Load walks the extension, counts the pages its inserts will
// allocate and reserves them on the device in one piece (Disk.Reserve), so
// a loaded arena is allocated once at the size it ends with instead of
// being grown by doubling. Nothing here knows a size, and nothing is built
// to be measured: STR attributes are fixed-width, so a tuple's size is its
// fan-outs times nf2's arithmetic on its schema (FlatSize, NestedSize),
// and page counts come from the sizers of heap and longobj, which share
// their arithmetic with the insert paths. TestEncodersMatchTreeOracle
// holds every size here to the length of what the encoder writes. A pass
// that misses something (the counted-index ablation builds B+-trees it
// does not see) costs only the device's fallback growth, never
// correctness.

// relSize returns the encoded size of a tt tuple that nests n tuples of
// the flat type elem.
func relSize(tt, elem *nf2.TupleType, n int) int { return tt.NestedSize(n, n*elem.FlatSize()) }

// componentsSize returns the number of direct-storage components of s and
// their total encoded bytes (what direct.components produces).
func componentsSize(s *cobench.Station) (n, total int) {
	total = RootType.FlatSize() + len(s.Seeings)*cobench.SightseeingType.FlatSize()
	for _, p := range s.Platforms {
		total += relSize(cobench.PlatformType, cobench.ConnectionType, len(p.Conns))
	}
	return 1 + len(s.Platforms) + len(s.Seeings), total
}

// dnsmSizes returns the encoded bytes of the four nested tuples of s, by
// relation slot (what dnsm.tuples produces).
func dnsmSizes(s *cobench.Station) [4]int {
	groups := 0
	for _, p := range s.Platforms {
		groups += relSize(dnsmGroupElem, dnsmConnElem, len(p.Conns))
	}
	return [4]int{
		dnsmStation:     dnsmStationType.FlatSize(),
		dnsmPlatform:    relSize(dnsmPlatformType, dnsmPlatElem, len(s.Platforms)),
		dnsmConnection:  dnsmConnectionType.NestedSize(len(s.Platforms), groups),
		dnsmSightseeing: relSize(dnsmSightseeingType, dnsmSeeElem, len(s.Seeings)),
	}
}
