package store

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

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
// so two views of one base never share scratch — except the staging of a
// relation-ordered NSM scan (staging, below), which is held only while one
// ScanAll runs and is lent out of the engine's ScanStages.
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

// ScanStages lends the staging of a relation-ordered scan — every
// object's root, platform and connection rows and their strings, and the
// sightseeing rows of the objects not yet handed out (one object's in
// physical = object order; staging), which NSM's ScanAll holds only until
// it returns — to whichever engine sharing it scans next (Options.Scans).
// A staging costs its first two scans (the strings chunk, then settle on
// one buffer); shared, the stagings number the most scans that ran at
// once, each the size of the largest extension it staged, however many
// engines there are. A ViewPool's views need that: how many the pool
// opens, and when, is up to request timing. The zero value is empty; safe
// for concurrent use.
type ScanStages struct {
	mu   sync.Mutex
	free []*staging
}

// take returns a staging for one scan: the one given back last, else a
// fresh one.
func (s *ScanStages) take() *staging {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := len(s.free) - 1
	if k < 0 {
		return new(staging)
	}
	a := s.free[k]
	s.free[k] = nil
	s.free = s.free[:k]
	return a
}

// put gives a staging back once its scan has returned.
func (s *ScanStages) put(a *staging) {
	if poison { // whoever kept the scan's last object reads 0xDB strings
		a.begin(false)
		a.seen.Reset()
	}
	s.mu.Lock()
	s.free = append(s.free, a)
	s.mu.Unlock()
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
	a.name.Grow(len(rec)) // room for the name, not a whole chunk
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

// staging is the assembler of a relation-ordered scan (NSM's ScanAll),
// which stages its first relations whole and streams the last: stream
// sorts the staged rows by object and arms one count per object — the rows
// the streamed relation still owes it — and each streamed row staged
// counts one off. An object is finished and handed out by handOut, in
// object order, once its count is zero and every lower object has gone.
// In physical = object order the staged streamed rows are one object's,
// reset with their strings when it goes; an object that completes ahead
// of a lower one is held, its rows chained to each other, so the staging
// at worst holds every streamed row, as a whole-relation staging would.
type staging struct {
	assembler
	seen nf2.Strings // the strings of the staged streamed rows
	due  []due
	next int // the lowest object not handed out yet
	live int // staged streamed rows of objects not handed out yet
	// rest is what is left of the first relations' sorted rows: the next
	// object's lead.
	rest struct {
		roots []row[cobench.RootRecord]
		plats []row[cobench.Platform]
		conns []row[cobench.Connection]
	}
	// raw holds, copied, the records a pinned page still has after an
	// object became ready (ends[k] is where record k ends): they are
	// staged once the page is unfixed, so the ready object goes first.
	raw  []byte
	ends []int
	sel  []row[cobench.Sightseeing] // one object's rows, gathered when not adjacent
}

// due is one object's place in the stream: the rows the streamed relation
// still owes it and its first and last staged row (-1: none staged); the
// staged rows are chained through their key, the index of the object's
// next staged row.
type due struct{ left, first, last int32 }

// stream starts the streamed relation of a scan whose other relations are
// staged: object i is owed count(i) rows, packed into the seen arena.
func (a *staging) stream(n int, count func(i int) int) {
	sortByObject(a.roots)
	sortByObject(a.plats)
	sortByObject(a.conns)
	a.rest.roots, a.rest.plats, a.rest.conns = a.roots, a.plats, a.conns
	a.due = resize(a.due, n)
	for i := range a.due {
		a.due[i] = due{left: int32(count(i)), first: -1, last: -1}
	}
	a.next, a.live = 0, 0
	a.raw, a.ends = a.raw[:0], a.ends[:0]
	a.seen.Reset()
	a.strs = &a.seen
}

// ready reports whether the next object can be handed out.
func (a *staging) ready() bool {
	return a.next < len(a.due) && a.due[a.next].left == 0
}

// keep copies a record of the pinned page for stage to take once the page
// is unfixed.
func (a *staging) keep(rec []byte) {
	a.raw = append(a.raw, rec...)
	a.ends = append(a.ends, len(a.raw))
}

// kept calls fn with each record keep copied, in order, and forgets them.
func (a *staging) kept(fn func(rec []byte) error) error {
	from := 0
	for _, to := range a.ends {
		if err := fn(a.raw[from:to]); err != nil {
			return err
		}
		from = to
	}
	a.raw, a.ends = a.raw[:0], a.ends[:0]
	return nil
}

// streamed stages a streamed (flat NSM sightseeing) record of object obj.
func (a *staging) streamed(obj int32, rec []byte) error {
	d := &a.due[obj]
	if d.left == 0 {
		return fmt.Errorf("store: object %d: more sightseeing tuples than its directory lists", obj)
	}
	k := int32(len(a.sees))
	if err := a.feedSightseeing(obj, rec); err != nil {
		return err
	}
	a.sees[k].key = -1
	if d.first < 0 {
		d.first = k
	} else {
		a.sees[d.last].key = k
	}
	d.last = k
	d.left--
	a.live++
	return nil
}

// handOut finishes every ready object in turn and passes it to fn. When no
// streamed row is left staged, the rows and their strings start over.
func (a *staging) handOut(fn func(i int, s *cobench.Station) error) error {
	for a.ready() {
		i, r := a.next, &a.rest
		obj := int32(i)
		nr, np, nc := prefixOf(r.roots, obj), prefixOf(r.plats, obj), prefixOf(r.conns, obj)
		sees := a.rowsOf(a.due[i])
		s, err := a.build(r.roots[:nr], r.plats[:np], r.conns[:nc], sees)
		if err != nil {
			return fmt.Errorf("store: object %d: %w", i, err)
		}
		r.roots, r.plats, r.conns = r.roots[nr:], r.plats[np:], r.conns[nc:]
		a.next++
		if a.live -= len(sees); a.live == 0 {
			a.sees = a.sees[:0]
		}
		if err := fn(i, s); err != nil {
			return err
		}
		if a.live == 0 { // the Station fn was lent is done with
			a.seen.Reset()
		}
	}
	return nil
}

// rowsOf returns the staged streamed rows of d's object in arrival order:
// where they lie, when they are adjacent, as they are in object order.
func (a *staging) rowsOf(d due) []row[cobench.Sightseeing] {
	n, adjacent := 0, true
	for k := d.first; k >= 0; k = a.sees[k].key {
		adjacent = adjacent && k == d.first+int32(n)
		n++
	}
	if adjacent {
		return a.sees[max(d.first, 0):][:n]
	}
	sel := a.sel[:0]
	for k := d.first; k >= 0; k = a.sees[k].key {
		sel = append(sel, a.sees[k])
	}
	a.sel = sel
	return sel
}

// finished reports a streamed relation that ended owing an object rows.
func (a *staging) finished() error {
	if a.next < len(a.due) {
		return fmt.Errorf("store: object %d: %d sightseeing tuples missing", a.next, a.due[a.next].left)
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
