package store

import (
	"cmp"
	"fmt"
	"slices"

	"complexobj/cobench"
	"complexobj/internal/longobj"
	"complexobj/nf2"
)

// row is one staged record: the decoded value, the object it belongs to
// (always 0 outside a relation-ordered scan) and the key that joins it to
// its parent — a platform's own key, a connection's parent platform key;
// roots and sightseeings have none.
type row[T any] struct {
	obj, key int32
	v        T
}

// assembler is the one place stored records become Stations. Every model
// feeds it the same four kinds of record — root, platform (with its own
// key), connection (with its parent platform's key), sightseeing — in
// whatever order its layout delivers them, and takes finished objects
// back. The record schemas differ per model only in the join keys in
// front of the payload attributes, so each feed names the tuple type and
// the position of the first payload attribute.
//
// Decoding copies what it keeps (record bytes may alias a page frame or a
// longobj scratch block): integers into the staged rows, STR payloads into
// the packed backing strs. A caller that can see all of an object's
// records first measures them (StringBytes) and gets one backing per object;
// the NSM paths, which meet records one page view at a time, let strs
// chunk. The rows are scratch and are reused by the next object; a
// finished Station owns exactly-sized Platforms and Seeings and one
// Connection array shared by its platforms, and nothing else — so an
// assembled object costs a handful of allocations however many attributes
// it has, and keeping it alive keeps only its own string backing (or its
// chunks) alive with it.
type assembler struct {
	strs  nf2.Strings
	roots []row[cobench.RootRecord]
	plats []row[cobench.Platform]
	conns []row[cobench.Connection]
	sees  []row[cobench.Sightseeing]
	fill  []int // connections per platform of the object being finished
}

// reset drops the staged rows (not the string backing's free room).
func (a *assembler) reset() {
	a.roots, a.plats, a.conns, a.sees = a.roots[:0], a.plats[:0], a.conns[:0], a.sees[:0]
}

// decodeAttrs reads the payload attributes of rec that start at position
// first of tt, through one validated nf2.Record: the Int/Link ones into
// ints, then the String ones into strs — packed into backing, or allocated
// one by one when it is nil.
func decodeAttrs(tt *nf2.TupleType, rec []byte, first int, ints []*int32, strs []*string, backing *nf2.Strings) error {
	r, err := tt.Open(rec)
	if err != nil {
		return err
	}
	for k, d := range ints {
		if *d, err = r.Int(first + k); err != nil {
			return err
		}
	}
	for k, d := range strs {
		if *d, err = r.Str(first+len(ints)+k, backing); err != nil {
			return err
		}
	}
	return nil
}

// intAttr reads the single Int/Link attribute i of rec (a join key, a child
// reference): what a projection costs when it wants one value of a tuple.
func intAttr(tt *nf2.TupleType, rec []byte, i int) (int32, error) {
	r, err := tt.Open(rec)
	if err != nil {
		return 0, err
	}
	return r.Int(i)
}

// root stages a root record (RootType in every model).
func (a *assembler) root(obj int32, rec []byte) error {
	r, err := decodeRoot(rec, &a.strs)
	a.roots = append(a.roots, row[cobench.RootRecord]{obj: obj, v: r})
	return err
}

// platform stages a platform record whose payload attributes (Nr, NoLine,
// TicketCode, Information) start at position base of tt.
func (a *assembler) platform(obj, own int32, tt *nf2.TupleType, base int, rec []byte) error {
	r := row[cobench.Platform]{obj: obj, key: own}
	err := decodeAttrs(tt, rec, base, []*int32{&r.v.Nr, &r.v.NoLine, &r.v.TicketCode}, []*string{&r.v.Information}, &a.strs)
	a.plats = append(a.plats, r)
	return err
}

// connection stages a connection record whose payload attributes (LineNr,
// KeyConnection, OidConnection, DepartureTimes) start at position base.
func (a *assembler) connection(obj, parent int32, tt *nf2.TupleType, base int, rec []byte) error {
	r := row[cobench.Connection]{obj: obj, key: parent}
	err := decodeAttrs(tt, rec, base, []*int32{&r.v.LineNr, &r.v.KeyConnection, &r.v.OidConnection},
		[]*string{&r.v.DepartureTimes}, &a.strs)
	a.conns = append(a.conns, r)
	return err
}

// sightseeing stages a sightseeing record whose payload attributes (Nr,
// Description, Location, History, Remarks) start at position base.
func (a *assembler) sightseeing(obj int32, tt *nf2.TupleType, base int, rec []byte) error {
	r := row[cobench.Sightseeing]{obj: obj}
	err := decodeAttrs(tt, rec, base, []*int32{&r.v.Nr},
		[]*string{&r.v.Description, &r.v.Location, &r.v.History, &r.v.Remarks}, &a.strs)
	a.sees = append(a.sees, r)
	return err
}

// componentTypes maps a direct-storage component tag to its schema.
var componentTypes = [...]*nf2.TupleType{
	TagRoot:        RootType,
	TagPlatform:    cobench.PlatformType,
	TagSightseeing: cobench.SightseeingType,
}

// components stages a direct-storage object: its platform components carry
// their connections nested and their own key implicitly (their position).
func (a *assembler) components(comps []longobj.Component) error {
	n := 0
	for _, c := range comps {
		if int(c.Tag) >= len(componentTypes) {
			return fmt.Errorf("store: unknown component tag %d", c.Tag)
		}
		sz, err := componentTypes[c.Tag].StringBytes(c.Data)
		if err != nil {
			return err
		}
		n += sz
	}
	a.strs.Grow(n) // one backing for exactly this object's strings
	for _, c := range comps {
		var err error
		switch c.Tag {
		case TagRoot:
			err = a.root(0, c.Data)
		case TagPlatform:
			own := int32(len(a.plats) + 1)
			if err = a.platform(0, own, cobench.PlatformType, cobench.PlNr, c.Data); err != nil {
				return err
			}
			err = cobench.PlatformType.VisitRel(c.Data, cobench.PlConns, func(_, _ int, elem []byte) error {
				return a.connection(0, own, cobench.ConnectionType, cobench.CoLineNr, elem)
			})
		case TagSightseeing:
			err = a.sightseeing(0, cobench.SightseeingType, cobench.SeNr, c.Data)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// station finishes the single object staged since reset.
func (a *assembler) station() (*cobench.Station, error) {
	return a.build(a.roots, a.plats, a.conns, a.sees)
}

// each finishes the n objects of a relation-ordered scan, in object order.
func (a *assembler) each(n int, fn func(i int, s *cobench.Station) error) error {
	// Rows arrive in physical order, which is object order until structural
	// updates have moved tuples around; the stable sort keeps each object's
	// rows in arrival order either way.
	sortByObject(a.roots)
	sortByObject(a.plats)
	sortByObject(a.conns)
	sortByObject(a.sees)
	roots, plats, conns, sees := a.roots, a.plats, a.conns, a.sees
	for i := 0; i < n; i++ {
		obj := int32(i)
		nr, np, nc, ns := prefixOf(roots, obj), prefixOf(plats, obj), prefixOf(conns, obj), prefixOf(sees, obj)
		s, err := a.build(roots[:nr], plats[:np], conns[:nc], sees[:ns])
		if err != nil {
			return fmt.Errorf("store: object %d: %w", i, err)
		}
		roots, plats, conns, sees = roots[nr:], plats[np:], conns[nc:], sees[ns:]
		if err := fn(i, s); err != nil {
			return err
		}
	}
	return nil
}

func sortByObject[T any](rows []row[T]) {
	slices.SortStableFunc(rows, func(x, y row[T]) int { return cmp.Compare(x.obj, y.obj) })
}

// prefixOf counts the leading rows that belong to obj.
func prefixOf[T any](rows []row[T], obj int32) int {
	n := 0
	for n < len(rows) && rows[n].obj == obj {
		n++
	}
	return n
}

// build joins one object's rows into a Station with exactly-sized slices.
// Connections find their platform by a linear match over its own keys (an
// object has at most fan-out platforms) and are laid out platform by
// platform in one backing array, in arrival order within each platform.
func (a *assembler) build(roots []row[cobench.RootRecord], plats []row[cobench.Platform],
	conns []row[cobench.Connection], sees []row[cobench.Sightseeing]) (*cobench.Station, error) {
	if len(roots) != 1 {
		return nil, fmt.Errorf("store: object with %d root records", len(roots))
	}
	s := &cobench.Station{}
	s.SetRoot(roots[0].v)
	if len(plats) > 0 {
		s.Platforms = make([]cobench.Platform, len(plats))
		for i := range plats {
			s.Platforms[i] = plats[i].v
		}
	}
	if len(sees) > 0 {
		s.Seeings = make([]cobench.Sightseeing, len(sees))
		for i := range sees {
			s.Seeings[i] = sees[i].v
		}
	}
	if len(conns) == 0 {
		return s, nil
	}
	fill := append(a.fill[:0], make([]int, len(plats))...)
	a.fill = fill
	for i := range conns {
		pi := slices.IndexFunc(plats, func(p row[cobench.Platform]) bool { return p.key == conns[i].key })
		if pi < 0 {
			return nil, fmt.Errorf("store: connection with unknown parent %d", conns[i].key)
		}
		conns[i].key = int32(pi) // the platform's position from here on
		fill[pi]++
	}
	backing := make([]cobench.Connection, len(conns))
	lo := 0
	for pi, n := range fill {
		if n > 0 {
			s.Platforms[pi].Conns = backing[lo : lo : lo+n]
			lo += n
		}
	}
	for i := range conns {
		p := &s.Platforms[conns[i].key]
		p.Conns = append(p.Conns, conns[i].v)
	}
	return s, nil
}
