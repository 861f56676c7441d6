package store

import (
	"slices"

	"complexobj/cobench"
	"complexobj/internal/longobj"
	"complexobj/nf2"
)

// Component tags for direct storage: the root record, each platform
// subtuple (with its nested connections) and each sightseeing subtuple are
// separately addressable parts of the stored object, which is what gives
// DASDBS-DSM its selective page access.
const (
	TagRoot        = 0
	TagPlatform    = 1
	TagSightseeing = 2
)

// RootType is the flat schema of a station's atomic root attributes. It
// doubles as the NSM_Station relation schema (Figure 3: "on the root level
// we only need the own root key").
var RootType = nf2.MustTupleType("StationRoot",
	nf2.Attr{Name: "Key", Type: nf2.IntType()},
	nf2.Attr{Name: "NoPlatform", Type: nf2.IntType()},
	nf2.Attr{Name: "NoSeeing", Type: nf2.IntType()},
	nf2.Attr{Name: "Name", Type: nf2.StringType(cobench.StrSize)},
)

// EncodeRoot serializes a root record; the result has a fixed size, which
// is what makes query 3's "update atomic attributes" a same-size in-place
// operation for every storage model.
func EncodeRoot(r cobench.RootRecord) ([]byte, error) { return appendRoot(nil, r) }

// appendRoot appends the encoded root record to dst.
func appendRoot(dst []byte, r cobench.RootRecord) ([]byte, error) {
	return RootType.AppendEncode(dst, nf2.NewTuple(
		nf2.IntValue(r.Key),
		nf2.IntValue(r.NoPlatform),
		nf2.IntValue(r.NoSeeing),
		nf2.StringValue(r.Name),
	))
}

// decodeRoot parses an encoded root record, its name packed into backing.
func decodeRoot(data []byte, backing *nf2.Strings) (cobench.RootRecord, error) {
	var r cobench.RootRecord
	err := decodeAttrs(RootType, data, 0, []*int32{&r.Key, &r.NoPlatform, &r.NoSeeing}, []*string{&r.Name}, backing)
	return r, err
}

// DecodeRootKey extracts only the key from an encoded root record (value
// selections evaluate their predicate without materializing the record).
func DecodeRootKey(data []byte) (int32, error) {
	return intAttr(RootType, data, 0)
}

// appendPlatform appends one encoded platform subtuple (with nested
// connections, the benchmark schema) to dst.
func appendPlatform(dst []byte, p cobench.Platform) ([]byte, error) {
	conns := make([]nf2.Tuple, len(p.Conns))
	for j, c := range p.Conns {
		conns[j] = nf2.NewTuple(
			nf2.IntValue(c.LineNr),
			nf2.IntValue(c.KeyConnection),
			nf2.LinkValue(c.OidConnection),
			nf2.StringValue(c.DepartureTimes),
		)
	}
	return cobench.PlatformType.AppendEncode(dst, nf2.NewTuple(
		nf2.IntValue(p.Nr),
		nf2.IntValue(p.NoLine),
		nf2.IntValue(p.TicketCode),
		nf2.StringValue(p.Information),
		nf2.RelValue(conns),
	))
}

func appendSightseeing(dst []byte, g cobench.Sightseeing) ([]byte, error) {
	return cobench.SightseeingType.AppendEncode(dst, nf2.NewTuple(
		nf2.IntValue(g.Nr),
		nf2.StringValue(g.Description),
		nf2.StringValue(g.Location),
		nf2.StringValue(g.History),
		nf2.StringValue(g.Remarks),
	))
}

// appendPlatformChildren appends the child references of an encoded
// platform subtuple to dst (partial decoding: navigation projects the LINK
// attribute without materializing the strings — or, since it rides on
// VisitRel, any tuple scaffolding at all).
func appendPlatformChildren(dst []int32, data []byte) ([]int32, error) {
	err := cobench.PlatformType.VisitRel(data, cobench.PlConns, func(j, n int, elem []byte) error {
		oid, err := intAttr(cobench.ConnectionType, elem, cobench.CoOid)
		if err != nil {
			return err
		}
		if j == 0 {
			dst = slices.Grow(dst, n)
		}
		dst = append(dst, oid)
		return nil
	})
	return dst, err
}

// components splits a station into its direct-storage components: the
// root record first (so it lands on the first data page), then the
// platforms, then the sightseeings. All of them are encoded into the
// model's one encode buffer and alias it, so they are to be consumed —
// longobj copies what it stores — before the next call. (A component cut
// before the buffer had to grow keeps the array it was cut from, so
// growth never invalidates one.)
func (m *direct) components(s *cobench.Station) ([]longobj.Component, error) {
	buf, comps := m.enc[:0], m.comps[:0]
	defer func() { m.enc, m.comps = buf, comps }()
	cut := func(tag uint8, from int) {
		comps = append(comps, longobj.Component{Tag: tag, Data: buf[from:len(buf):len(buf)]})
	}
	var err error
	if buf, err = appendRoot(buf, s.Root()); err != nil {
		return nil, err
	}
	cut(TagRoot, 0)
	for _, p := range s.Platforms {
		from := len(buf)
		if buf, err = appendPlatform(buf, p); err != nil {
			return nil, err
		}
		cut(TagPlatform, from)
	}
	for _, g := range s.Seeings {
		from := len(buf)
		if buf, err = appendSightseeing(buf, g); err != nil {
			return nil, err
		}
		cut(TagSightseeing, from)
	}
	return comps, nil
}
