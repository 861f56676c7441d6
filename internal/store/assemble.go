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

// object is an assembly destination: the Station build fills and the one
// array its platforms' Conns share. A fresh object yields an owned Station
// with exactly-sized slices; one that is filled again grows all three in
// place and allocates nothing once it has held the largest object.
type object struct {
	st    cobench.Station
	conns []cobench.Connection
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
// a packed backing. A caller that can see all of an object's records first
// measures them (StringBytes) and reserves exactly; the NSM paths, which
// meet records one page view at a time, let the backing chunk. The rows
// are scratch and are reused by the next object.
//
// Where the object and its strings go is the caller's choice, made by
// begin, and it decides how long the result lives (doc.go, "Assembly"):
//
//   - lent (every read: FetchByAddress, FetchByKey, ScanAll; the root name
//     and child list of Navigate / ReadRoot): the one object, string arena
//     and child list below, overwritten by the next read that lends.
//     Nothing is allocated once they have held the largest object; the
//     value is valid until the view's next call.
//   - owned (UpdateObject's fetch, whose Station mutate may grow): a fresh
//     object and the never-Reset backing owned. The Station owns
//     exactly-sized Platforms and Seeings, one Connection array and its
//     share of a string buffer that is never written again — a handful of
//     allocations however many attributes it has.
//
// An assembler belongs to one view's model, never to a shared directory,
// so two views of one base never share scratch.
type assembler struct {
	dst  *object      // where build puts the object being staged
	strs *nf2.Strings // where decoding packs its strings

	roots []row[cobench.RootRecord]
	plats []row[cobench.Platform]
	conns []row[cobench.Connection]
	sees  []row[cobench.Sightseeing]
	fill  []int // connections per platform of the object being finished

	owned nf2.Strings // backs the strings of owned results: never Reset
	lent  struct {    // what a fetch returns, what a scan hands its callback
		object
		strs nf2.Strings
	}
	name nf2.Strings        // the root name Navigate / ReadRoot / UpdateRoots lend
	upd  cobench.RootRecord // the record UpdateRoots lends its mutate
	kids []int32            // the child list Navigate lends
}

// begin drops the staged rows and names the destination of the next
// object: a fresh one the caller will own, or the lent one, whose previous
// contents — strings first — are invalid from here on.
func (a *assembler) begin(owned bool) {
	a.roots, a.plats, a.conns, a.sees = a.roots[:0], a.plats[:0], a.conns[:0], a.sees[:0]
	if owned {
		a.dst, a.strs = new(object), &a.owned
		return
	}
	a.lent.strs.Reset()
	a.dst, a.strs = &a.lent.object, &a.lent.strs
}

// lendRoot decodes a root record whose name is valid until the next call
// that lends one.
func (a *assembler) lendRoot(rec []byte) (cobench.RootRecord, error) {
	a.name.Reset()
	return decodeRoot(rec, &a.name)
}

// kidsScratch returns the empty child list a Navigate appends to.
func (a *assembler) kidsScratch() []int32 {
	if poison { // whoever kept the previous list reads no object's index
		for i := range a.kids {
			a.kids[i] = -1
		}
		a.kids = nil
	}
	return a.kids[:0]
}

// lendKids takes the finished child list back for the next Navigate to
// overwrite and returns what this one hands out: nil for a childless
// object, on every model.
func (a *assembler) lendKids(kids []int32) []int32 {
	a.kids = kids
	if len(kids) == 0 {
		return nil
	}
	return kids
}

// decodeAttrs reads the payload attributes of rec that start at position
// first of tt, through one validated nf2.Record: the Int/Link ones into
// ints, then the String ones into strs, packed into backing.
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
	r, err := decodeRoot(rec, a.strs)
	a.roots = append(a.roots, row[cobench.RootRecord]{obj: obj, v: r})
	return err
}

// platform stages a platform record whose payload attributes (Nr, NoLine,
// TicketCode, Information) start at position base of tt.
func (a *assembler) platform(obj, own int32, tt *nf2.TupleType, base int, rec []byte) error {
	r := row[cobench.Platform]{obj: obj, key: own}
	err := decodeAttrs(tt, rec, base, []*int32{&r.v.Nr, &r.v.NoLine, &r.v.TicketCode}, []*string{&r.v.Information}, a.strs)
	a.plats = append(a.plats, r)
	return err
}

// connection stages a connection record whose payload attributes (LineNr,
// KeyConnection, OidConnection, DepartureTimes) start at position base.
func (a *assembler) connection(obj, parent int32, tt *nf2.TupleType, base int, rec []byte) error {
	r := row[cobench.Connection]{obj: obj, key: parent}
	err := decodeAttrs(tt, rec, base, []*int32{&r.v.LineNr, &r.v.KeyConnection, &r.v.OidConnection},
		[]*string{&r.v.DepartureTimes}, a.strs)
	a.conns = append(a.conns, r)
	return err
}

// sightseeing stages a sightseeing record whose payload attributes (Nr,
// Description, Location, History, Remarks) start at position base.
func (a *assembler) sightseeing(obj int32, tt *nf2.TupleType, base int, rec []byte) error {
	r := row[cobench.Sightseeing]{obj: obj}
	err := decodeAttrs(tt, rec, base, []*int32{&r.v.Nr},
		[]*string{&r.v.Description, &r.v.Location, &r.v.History, &r.v.Remarks}, a.strs)
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

// station finishes the single object staged since begin.
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

// build joins one object's rows into the destination's Station: its slices
// exactly sized when the destination is fresh, grown in place when it has
// been filled before. Connections find their platform by a linear match
// over its own keys (an object has at most fan-out platforms) and are laid
// out platform by platform in one backing array, in arrival order within
// each platform.
func (a *assembler) build(roots []row[cobench.RootRecord], plats []row[cobench.Platform],
	conns []row[cobench.Connection], sees []row[cobench.Sightseeing]) (*cobench.Station, error) {
	if len(roots) != 1 {
		return nil, fmt.Errorf("store: object with %d root records", len(roots))
	}
	o := a.dst
	if poison { // whoever kept the previous object's slices reads zero values
		clear(o.st.Platforms)
		clear(o.st.Seeings)
		clear(o.conns)
		o.st.Platforms, o.st.Seeings, o.conns = nil, nil, nil
	}
	s := &o.st
	s.SetRoot(roots[0].v)
	s.Platforms = resize(s.Platforms, len(plats))
	for i := range plats {
		s.Platforms[i] = plats[i].v // Conns nil
	}
	s.Seeings = resize(s.Seeings, len(sees))
	for i := range sees {
		s.Seeings[i] = sees[i].v
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
	o.conns = resize(o.conns, len(conns))
	backing, lo := o.conns, 0
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

// resize returns s with length n: s's own array when it holds n elements,
// an exactly-sized new one otherwise (and nil for a fresh, empty slice).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
