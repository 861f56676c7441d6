// Package cobench implements the complex object benchmark of the paper's
// §2: a revised version of the Altair complex object benchmark. The
// database extension consists of Station complex objects with nested
// Platform/Connection and Sightseeing sub-relations; connections carry
// references to other stations, which queries 2 and 3 navigate.
//
// The package provides the domain types, their NF² schema, the seeded data
// generator (§2.1) and the benchmark workload constants (§2.2).
package cobench

import (
	"slices"
	"strings"

	"complexobj/nf2"
)

// Station is the benchmark complex object (paper Figure 1). Field sizes
// follow the paper: INT attributes are 4 bytes, STR attributes have a
// fixed 100-byte capacity.
type Station struct {
	Key        int32
	NoPlatform int32
	NoSeeing   int32
	Name       string
	Platforms  []Platform
	Seeings    []Sightseeing
}

// Platform is a nested sub-object of Station; its Connection sub-relation
// nests one level deeper.
type Platform struct {
	Nr          int32
	NoLine      int32
	TicketCode  int32
	Information string
	Conns       []Connection
}

// Connection links a platform to a neighbouring station. OidConnection is
// the paper's LINK attribute: a reference to the target Station, stored
// here as the logical station index (the storage models resolve it through
// their zero-cost address tables, the paper's convention in §5.1).
type Connection struct {
	LineNr         int32
	KeyConnection  int32
	OidConnection  int32
	DepartureTimes string
}

// Sightseeing describes a tourist attraction near the station; it is dead
// weight for queries 2 and 3, which is exactly what makes the DASDBS-DSM
// partial reads pay off (paper §5.3, Figure 5).
type Sightseeing struct {
	Nr          int32
	Description string
	Location    string
	History     string
	Remarks     string
}

// RootRecord is the atomic root part of a Station: what query 2 reads for
// the grand-children and what query 3 updates ("We update atomic
// attributes, that is, the object structure is not changed").
type RootRecord struct {
	Key        int32
	NoPlatform int32
	NoSeeing   int32
	Name       string
}

// Root extracts the station's root record.
func (s *Station) Root() RootRecord {
	return RootRecord{Key: s.Key, NoPlatform: s.NoPlatform, NoSeeing: s.NoSeeing, Name: s.Name}
}

// SetRoot applies a root record to the station's atomic attributes.
func (s *Station) SetRoot(r RootRecord) {
	s.Key, s.NoPlatform, s.NoSeeing, s.Name = r.Key, r.NoPlatform, r.NoSeeing, r.Name
}

// Children returns the station indices referenced by the station's
// connections, in platform/connection order (the paper's "find the
// identifiers of the objects it refers to"). It allocates the list, so
// code in a loop walks Platforms[].Conns[].OidConnection instead; the tests
// keep it as the oracle Navigate's child lists are held to.
func (s *Station) Children() []int32 {
	var out []int32
	for _, p := range s.Platforms {
		for _, c := range p.Conns {
			out = append(out, c.OidConnection)
		}
	}
	return out
}

// NumConnections returns the total connection count across platforms.
func (s *Station) NumConnections() int {
	n := 0
	for _, p := range s.Platforms {
		n += len(p.Conns)
	}
	return n
}

// Clone returns a deep copy sharing no memory with s: one Station with
// exactly-sized Platforms and Seeings, one Connection array shared by its
// platforms and one backing for all its strings. It is how a caller keeps
// an object a storage model only lent it (a scanned Station is valid until
// the view's next call).
func (s *Station) Clone() *Station {
	n := len(s.Name)
	for _, p := range s.Platforms {
		n += len(p.Information)
		for _, c := range p.Conns {
			n += len(c.DepartureTimes)
		}
	}
	for _, g := range s.Seeings {
		n += len(g.Description) + len(g.Location) + len(g.History) + len(g.Remarks)
	}
	var backing strings.Builder
	backing.Grow(n)
	own := func(v string) string {
		from := backing.Len()
		backing.WriteString(v)
		return backing.String()[from:]
	}
	c := &Station{Key: s.Key, NoPlatform: s.NoPlatform, NoSeeing: s.NoSeeing, Name: own(s.Name)}
	if len(s.Platforms) > 0 {
		c.Platforms = make([]Platform, len(s.Platforms))
		conns := make([]Connection, 0, s.NumConnections())
		for i, p := range s.Platforms {
			p.Information = own(p.Information)
			from := len(conns)
			conns = append(conns, p.Conns...)
			p.Conns = nil
			if len(conns) > from {
				p.Conns = conns[from:len(conns):len(conns)]
			}
			for j := range p.Conns {
				p.Conns[j].DepartureTimes = own(p.Conns[j].DepartureTimes)
			}
			c.Platforms[i] = p
		}
	}
	if len(s.Seeings) > 0 {
		c.Seeings = make([]Sightseeing, len(s.Seeings))
		for i, g := range s.Seeings {
			g.Description, g.Location = own(g.Description), own(g.Location)
			g.History, g.Remarks = own(g.History), own(g.Remarks)
			c.Seeings[i] = g
		}
	}
	return c
}

// Attribute positions in the schemas below; storage models use them for
// partial decoding.
const (
	StKey = iota
	StNoPlatform
	StNoSeeing
	StName
	StPlatforms
	StSeeings
)

const (
	PlNr = iota
	PlNoLine
	PlTicketCode
	PlInformation
	PlConns
)

const (
	CoLineNr = iota
	CoKeyConnection
	CoOid
	CoDepartureTimes
)

const (
	SeNr = iota
	SeDescription
	SeLocation
	SeHistory
	SeRemarks
)

// StrSize is the fixed capacity of every STR attribute in the benchmark
// (100 bytes, paper Figure 1).
const StrSize = 100

// The benchmark NF² schemas (paper Figure 1).
var (
	// ConnectionType is the innermost subtuple schema.
	ConnectionType = nf2.MustTupleType("Connection",
		nf2.Attr{Name: "LineNr", Type: nf2.IntType()},
		nf2.Attr{Name: "KeyConnection", Type: nf2.IntType()},
		nf2.Attr{Name: "OidConnection", Type: nf2.LinkType()},
		nf2.Attr{Name: "DepartureTimes", Type: nf2.StringType(StrSize)},
	)
	// PlatformType nests ConnectionType.
	PlatformType = nf2.MustTupleType("Platform",
		nf2.Attr{Name: "PlatformNr", Type: nf2.IntType()},
		nf2.Attr{Name: "NoLine", Type: nf2.IntType()},
		nf2.Attr{Name: "TicketCode", Type: nf2.IntType()},
		nf2.Attr{Name: "Information", Type: nf2.StringType(StrSize)},
		nf2.Attr{Name: "Connection", Type: nf2.RelType(ConnectionType)},
	)
	// SightseeingType is the second, navigation-irrelevant sub-relation.
	SightseeingType = nf2.MustTupleType("Sightseeing",
		nf2.Attr{Name: "SeeingNr", Type: nf2.IntType()},
		nf2.Attr{Name: "Description", Type: nf2.StringType(StrSize)},
		nf2.Attr{Name: "Location", Type: nf2.StringType(StrSize)},
		nf2.Attr{Name: "History", Type: nf2.StringType(StrSize)},
		nf2.Attr{Name: "Remarks", Type: nf2.StringType(StrSize)},
	)
	// StationType is the complete benchmark complex object.
	StationType = nf2.MustTupleType("Station",
		nf2.Attr{Name: "Key", Type: nf2.IntType()},
		nf2.Attr{Name: "NoPlatform", Type: nf2.IntType()},
		nf2.Attr{Name: "NoSeeing", Type: nf2.IntType()},
		nf2.Attr{Name: "Name", Type: nf2.StringType(StrSize)},
		nf2.Attr{Name: "Platform", Type: nf2.RelType(PlatformType)},
		nf2.Attr{Name: "Sightseeing", Type: nf2.RelType(SightseeingType)},
	)
)

// Tuple converts the station to its NF² representation.
func (s *Station) Tuple() nf2.Tuple {
	plats := make([]nf2.Tuple, len(s.Platforms))
	for i, p := range s.Platforms {
		conns := make([]nf2.Tuple, len(p.Conns))
		for j, c := range p.Conns {
			conns[j] = nf2.NewTuple(
				nf2.IntValue(c.LineNr),
				nf2.IntValue(c.KeyConnection),
				nf2.LinkValue(c.OidConnection),
				nf2.StringValue(c.DepartureTimes),
			)
		}
		plats[i] = nf2.NewTuple(
			nf2.IntValue(p.Nr),
			nf2.IntValue(p.NoLine),
			nf2.IntValue(p.TicketCode),
			nf2.StringValue(p.Information),
			nf2.RelValue(conns),
		)
	}
	sees := make([]nf2.Tuple, len(s.Seeings))
	for i, g := range s.Seeings {
		sees[i] = nf2.NewTuple(
			nf2.IntValue(g.Nr),
			nf2.StringValue(g.Description),
			nf2.StringValue(g.Location),
			nf2.StringValue(g.History),
			nf2.StringValue(g.Remarks),
		)
	}
	return nf2.NewTuple(
		nf2.IntValue(s.Key),
		nf2.IntValue(s.NoPlatform),
		nf2.IntValue(s.NoSeeing),
		nf2.StringValue(s.Name),
		nf2.RelValue(plats),
		nf2.RelValue(sees),
	)
}

// EncodedSize returns the number of bytes StationType.Encode produces for
// s.Tuple(), from the fan-outs alone: every attribute has a fixed width,
// so nothing is built to be measured.
func (s *Station) EncodedSize() int {
	sub := len(s.Seeings) * SightseeingType.FlatSize()
	for _, p := range s.Platforms {
		sub += PlatformType.NestedSize(len(p.Conns), len(p.Conns)*ConnectionType.FlatSize())
	}
	return StationType.NestedSize(len(s.Platforms)+len(s.Seeings), sub)
}

// Equal reports deep equality of two stations: every attribute and every
// sub-object, in order (an empty sub-relation equals a nil one). For
// stations whose strings respect StrSize it is
// StationType.Equal(s.Tuple(), o.Tuple()), without the tuples.
func (s *Station) Equal(o *Station) bool {
	if s == nil || o == nil {
		return s == o
	}
	return s.Root() == o.Root() &&
		slices.EqualFunc(s.Platforms, o.Platforms, func(p, q Platform) bool {
			return p.Nr == q.Nr && p.NoLine == q.NoLine && p.TicketCode == q.TicketCode &&
				p.Information == q.Information && slices.Equal(p.Conns, q.Conns)
		}) &&
		slices.Equal(s.Seeings, o.Seeings)
}
