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

// appendRoot appends the encoded root record to dst. It has a fixed size,
// which is what makes query 3's "update atomic attributes" a same-size
// in-place operation for every storage model.
func appendRoot(dst []byte, r cobench.RootRecord) ([]byte, error) {
	a := RootType.Appender(dst)
	putRoot(&a, r)
	return a.Finish()
}

// putRoot, putPlatform, putConnection and putSightseeing supply an
// object's own attributes in Figure 1's order: the tail of its tuple under
// every model, whatever keys the model's schema puts in front and whatever
// it nests behind.
func putRoot(a *nf2.Appender, r cobench.RootRecord) {
	a.Int(r.Key)
	a.Int(r.NoPlatform)
	a.Int(r.NoSeeing)
	a.Str(r.Name)
}

func putPlatform(a *nf2.Appender, p *cobench.Platform) {
	a.Int(p.Nr)
	a.Int(p.NoLine)
	a.Int(p.TicketCode)
	a.Str(p.Information)
}

func putConnection(a *nf2.Appender, c *cobench.Connection) {
	a.Int(c.LineNr)
	a.Int(c.KeyConnection)
	a.Link(c.OidConnection)
	a.Str(c.DepartureTimes)
}

func putSightseeing(a *nf2.Appender, g *cobench.Sightseeing) {
	a.Int(g.Nr)
	a.Str(g.Description)
	a.Str(g.Location)
	a.Str(g.History)
	a.Str(g.Remarks)
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
	add := func(tag uint8, a *nf2.Appender) (err error) {
		from := len(buf)
		if buf, err = a.Finish(); err == nil {
			comps = append(comps, longobj.Component{Tag: tag, Data: buf[from:len(buf):len(buf)]})
		}
		return err
	}
	root := RootType.Appender(buf)
	putRoot(&root, s.Root())
	if err := add(TagRoot, &root); err != nil {
		return nil, err
	}
	for i := range s.Platforms {
		p := &s.Platforms[i]
		a := cobench.PlatformType.Appender(buf)
		putPlatform(&a, p)
		a.Rel(len(p.Conns), func(j int) { putConnection(&a, &p.Conns[j]) })
		if err := add(TagPlatform, &a); err != nil {
			return nil, err
		}
	}
	for i := range s.Seeings {
		a := cobench.SightseeingType.Appender(buf)
		putSightseeing(&a, &s.Seeings[i])
		if err := add(TagSightseeing, &a); err != nil {
			return nil, err
		}
	}
	return comps, nil
}
