package store

import (
	"fmt"
	"maps"
	"slices"

	"complexobj/cobench"
	"complexobj/internal/longobj"
	"complexobj/nf2"
)

// Nested-normalized relation schemas (paper Figure 4): the flat NSM tuples
// of one object are re-nested on the root (and parent) foreign keys, so
// exactly one tuple per relation per object remains and the foreign keys
// are not replicated in sibling tuples.
var (
	dnsmStationType = RootType

	dnsmPlatformType = nf2.MustTupleType("DASDBS-NSM_Platform",
		nf2.Attr{Name: "RootKey", Type: nf2.IntType()},
		nf2.Attr{Name: "Platforms", Type: nf2.RelType(nf2.MustTupleType("PlatformOfStation",
			nf2.Attr{Name: "OwnKey", Type: nf2.IntType()},
			nf2.Attr{Name: "PlatformNr", Type: nf2.IntType()},
			nf2.Attr{Name: "NoLine", Type: nf2.IntType()},
			nf2.Attr{Name: "TicketCode", Type: nf2.IntType()},
			nf2.Attr{Name: "Information", Type: nf2.StringType(cobench.StrSize)},
		))},
	)

	dnsmConnectionType = nf2.MustTupleType("DASDBS-NSM_Connection",
		nf2.Attr{Name: "RootKey", Type: nf2.IntType()},
		nf2.Attr{Name: "PerPlatform", Type: nf2.RelType(nf2.MustTupleType("ConnectionsOfPlatform",
			nf2.Attr{Name: "ParentKey", Type: nf2.IntType()},
			nf2.Attr{Name: "Connections", Type: nf2.RelType(nf2.MustTupleType("ConnectionOfStation",
				nf2.Attr{Name: "LineNr", Type: nf2.IntType()},
				nf2.Attr{Name: "KeyConnection", Type: nf2.IntType()},
				nf2.Attr{Name: "OidConnection", Type: nf2.LinkType()},
				nf2.Attr{Name: "DepartureTimes", Type: nf2.StringType(cobench.StrSize)},
			))},
		))},
	)

	dnsmSightseeingType = nf2.MustTupleType("DASDBS-NSM_Sightseeing",
		nf2.Attr{Name: "RootKey", Type: nf2.IntType()},
		nf2.Attr{Name: "Seeings", Type: nf2.RelType(nf2.MustTupleType("SightseeingOfStation",
			nf2.Attr{Name: "SeeingNr", Type: nf2.IntType()},
			nf2.Attr{Name: "Description", Type: nf2.StringType(cobench.StrSize)},
			nf2.Attr{Name: "Location", Type: nf2.StringType(cobench.StrSize)},
			nf2.Attr{Name: "History", Type: nf2.StringType(cobench.StrSize)},
			nf2.Attr{Name: "Remarks", Type: nf2.StringType(cobench.StrSize)},
		))},
	)
)

// dnsm implements DASDBS-NSM (§3.4): four relations of nested tuples, one
// tuple per relation per object, plus an in-memory transformation table
// that maps an object key to "the addresses of all the tuples that
// together store an object". Per the paper's accounting, the table itself
// costs no I/O (§5.1: "we did not account for additional I/Os needed ...
// to retrieve the tables with addresses").
type dnsm struct {
	eng *Engine

	stations *longobj.Store
	plats    *longobj.Store
	conns    *longobj.Store
	seeings  *longobj.Store

	refs   [][4]longobj.Ref // station, platform, connection, sightseeing
	keyIdx map[int32]int
	shared bool // refs and keyIdx are a generation's: copy before writing
	asm    assembler
	enc    []byte // encode buffer of the station, or root record, being stored
}

// positions in refs entries.
const (
	dnsmStation = iota
	dnsmPlatform
	dnsmConnection
	dnsmSightseeing
)

// dnsmTypes lists the four relation schemas by refs position.
var dnsmTypes = [4]*nf2.TupleType{dnsmStationType, dnsmPlatformType, dnsmConnectionType, dnsmSightseeingType}

func newDNSM(e *Engine) *dnsm {
	return &dnsm{
		eng:      e,
		stations: longobj.New(e.Dev, e.Pool, "DASDBS-NSM_Station"),
		plats:    longobj.New(e.Dev, e.Pool, "DASDBS-NSM_Platform"),
		conns:    longobj.New(e.Dev, e.Pool, "DASDBS-NSM_Connection"),
		seeings:  longobj.New(e.Dev, e.Pool, "DASDBS-NSM_Sightseeing"),
		keyIdx:   make(map[int32]int),
	}
}

// attach implements Model.
func (m *dnsm) attach(dir Model) {
	d := dir.(*dnsm)
	m.refs, m.keyIdx, m.shared = d.refs, d.keyIdx, true
	for slot, s := range m.stores() {
		s.Attach(d.stores()[slot])
	}
}

// dirChanged implements Model.
func (m *dnsm) dirChanged() bool {
	return !m.shared || m.stations.Changed() || m.plats.Changed() || m.conns.Changed() || m.seeings.Changed()
}

// Kind implements Model.
func (m *dnsm) Kind() Kind { return DASDBSNSM }

// Engine implements Model.
func (m *dnsm) Engine() *Engine { return m.eng }

// NumObjects implements Model.
func (m *dnsm) NumObjects() int { return len(m.refs) }

// tuples encodes the four nested tuples of one station, by relation slot,
// into the model's one encode buffer: they alias it and are to be stored
// — longobj copies what it stores — before the next call. (A tuple cut
// before the buffer had to grow keeps the array it was cut from.)
func (m *dnsm) tuples(s *cobench.Station) (recs [4][]byte, err error) {
	buf := m.enc[:0]
	defer func() { m.enc = buf }()
	for slot, tt := range dnsmTypes {
		from := len(buf)
		a := tt.Appender(buf)
		switch slot { // Figure 4: the root key, then the relation of the object's sub-tuples
		case dnsmStation:
			putRoot(&a, s.Root())
		case dnsmPlatform:
			a.Int(s.Key)
			a.Rel(len(s.Platforms), func(i int) {
				a.Int(int32(i + 1))
				putPlatform(&a, &s.Platforms[i])
			})
		case dnsmConnection:
			a.Int(s.Key)
			a.Rel(len(s.Platforms), func(i int) {
				conns := s.Platforms[i].Conns
				a.Int(int32(i + 1))
				a.Rel(len(conns), func(j int) { putConnection(&a, &conns[j]) })
			})
		case dnsmSightseeing:
			a.Int(s.Key)
			a.Rel(len(s.Seeings), func(i int) { putSightseeing(&a, &s.Seeings[i]) })
		}
		if buf, err = a.Finish(); err != nil {
			return recs, err
		}
		recs[slot] = buf[from:len(buf):len(buf)]
	}
	return recs, nil
}

// Load implements Model.
func (m *dnsm) Load(stations []*cobench.Station) error {
	if len(m.refs) > 0 {
		return fmt.Errorf("store: %s already loaded", m.Kind())
	}
	// Sizing pass: reserve the arena the inserts below will fill.
	var sizers [4]longobj.Sizer
	for _, s := range stations {
		for slot, size := range dnsmSizes(s) {
			sizers[slot].Add(1, size)
		}
	}
	pages := 0
	for _, z := range sizers {
		pages += z.Pages()
	}
	m.eng.Dev.Reserve(pages)
	m.refs = make([][4]longobj.Ref, 0, len(stations))
	m.keyIdx = make(map[int32]int, len(stations))
	for i, s := range stations {
		recs, err := m.tuples(s)
		if err != nil {
			return fmt.Errorf("store: encode station %d: %w", i, err)
		}
		var entry [4]longobj.Ref
		for slot, rec := range recs {
			if entry[slot], err = m.stores()[slot].Insert([]longobj.Component{{Tag: 0, Data: rec}}); err != nil {
				return fmt.Errorf("store: insert station %d slot %d: %w", i, slot, err)
			}
		}
		m.refs = append(m.refs, entry)
		m.keyIdx[s.Key] = i
	}
	return m.eng.Flush()
}

// stores lists the four relations' stores by refs position.
func (m *dnsm) stores() [4]*longobj.Store {
	return [4]*longobj.Store{m.stations, m.plats, m.conns, m.seeings}
}

// readTuple fetches the single nested tuple behind a ref.
func (m *dnsm) readTuple(slot, i int) ([]byte, error) {
	comps, err := m.stores()[slot].ReadAllShared(m.refs[i][slot])
	if err != nil {
		return nil, err
	}
	if len(comps) != 1 {
		return nil, fmt.Errorf("store: nested tuple %d/%d has %d components", slot, i, len(comps))
	}
	return comps[0].Data, nil
}

// The element schemas of the nested relations (Figure 4), which the
// assembler and Navigate walk with VisitRel.
var (
	dnsmPlatElem  = dnsmPlatformType.Attrs[1].Type.Elem
	dnsmGroupElem = dnsmConnectionType.Attrs[1].Type.Elem
	dnsmConnElem  = dnsmGroupElem.Attrs[1].Type.Elem
	dnsmSeeElem   = dnsmSightseeingType.Attrs[1].Type.Elem
)

// assemble rebuilds the station from its four nested tuples — lent until
// the view's next call, or the caller's to keep (UpdateObject's). Each tuple lives in its own
// relation's store, so all four stay valid side by side and can be
// measured before any is decoded.
func (m *dnsm) assemble(i int, owned bool) (*cobench.Station, error) {
	var recs [4][]byte
	strBytes := 0
	for slot, tt := range dnsmTypes {
		rec, err := m.readTuple(slot, i)
		if err != nil {
			return nil, err
		}
		n, err := tt.StringBytes(rec)
		if err != nil {
			return nil, err
		}
		recs[slot] = rec
		strBytes += n
	}
	a := &m.asm
	a.begin(owned)
	a.strs.Grow(strBytes)
	if err := a.root(0, recs[dnsmStation]); err != nil {
		return nil, err
	}
	err := dnsmPlatformType.VisitRel(recs[dnsmPlatform], 1, func(_, _ int, elem []byte) error {
		own, err := intAttr(dnsmPlatElem, elem, 0)
		if err != nil {
			return err
		}
		return a.platform(0, own, dnsmPlatElem, 1, elem)
	})
	if err != nil {
		return nil, err
	}
	err = dnsmConnectionType.VisitRel(recs[dnsmConnection], 1, func(_, _ int, group []byte) error {
		parent, err := intAttr(dnsmGroupElem, group, 0)
		if err != nil {
			return err
		}
		return dnsmGroupElem.VisitRel(group, 1, func(_, _ int, elem []byte) error {
			return a.connection(0, parent, dnsmConnElem, 0, elem)
		})
	})
	if err != nil {
		return nil, err
	}
	err = dnsmSightseeingType.VisitRel(recs[dnsmSightseeing], 1, func(_, _ int, elem []byte) error {
		return a.sightseeing(0, dnsmSeeElem, 0, elem)
	})
	if err != nil {
		return nil, err
	}
	return a.station()
}

// FetchByAddress implements Model: the transformation table "immediately
// shows the addresses of all the tuples that together store an object".
func (m *dnsm) FetchByAddress(i int) (*cobench.Station, error) {
	if err := checkIndex(i, len(m.refs)); err != nil {
		return nil, err
	}
	return m.assemble(i, false)
}

// FetchByKey implements Model: "only the root tuple of the object is
// selected based on a value selection, whereupon we use the addresses in
// the index table to retrieve all other data by address" (§4). The value
// selection is a physical scan of the root relation (set-oriented, no
// early exit); the sub-relation tuples are then fetched by address.
func (m *dnsm) FetchByKey(key int32) (*cobench.Station, error) {
	if len(m.refs) == 0 {
		return nil, ErrNotLoaded
	}
	found := -1
	for i := range m.refs {
		rec, err := m.readTuple(dnsmStation, i)
		if err != nil {
			return nil, err
		}
		k, err := DecodeRootKey(rec)
		if err != nil {
			return nil, err
		}
		if k == key {
			found = i
		}
	}
	if found < 0 {
		return nil, fmt.Errorf("store: no station with key %d", key)
	}
	return m.assemble(found, false)
}

// ScanAll implements Model: every relation is read once; shared pages are
// touched once physically thanks to the cache. Every object is
// materialised in full, into the one Station the view lends.
func (m *dnsm) ScanAll(fn func(i int, s *cobench.Station) error) error {
	if len(m.refs) == 0 {
		return ErrNotLoaded
	}
	m.eng.beginScan()
	defer m.eng.endScan()
	for i := range m.refs {
		s, err := m.assemble(i, false)
		if err != nil {
			return err
		}
		if err := fn(i, s); err != nil {
			return err
		}
	}
	return nil
}

// Navigate implements Model: the root tuple plus the object's single
// nested connection tuple. Platform and sightseeing relations stay
// untouched, which is why "the results for query 2b ... are independent of
// the number of Sightseeings" (§5.3).
func (m *dnsm) Navigate(i int) (cobench.RootRecord, []int32, error) {
	if err := checkIndex(i, len(m.refs)); err != nil {
		return cobench.RootRecord{}, nil, err
	}
	root, err := m.ReadRoot(i)
	if err != nil {
		return cobench.RootRecord{}, nil, err
	}
	coRec, err := m.readTuple(dnsmConnection, i)
	if err != nil {
		return cobench.RootRecord{}, nil, err
	}
	// Project only the LINK attributes out of the nested tuple.
	children := m.asm.kidsScratch()
	err = dnsmConnectionType.VisitRel(coRec, 1, func(_, _ int, group []byte) error {
		return dnsmGroupElem.VisitRel(group, 1, func(j, n int, elem []byte) error {
			oid, err := intAttr(dnsmConnElem, elem, 2) // OidConnection
			if err != nil {
				return err
			}
			if j == 0 {
				children = slices.Grow(children, n)
			}
			children = append(children, oid)
			return nil
		})
	})
	if err != nil {
		return cobench.RootRecord{}, nil, err
	}
	return root, m.asm.lendKids(children), nil
}

// ReadRoot implements Model: one small-tuple access in the root relation.
func (m *dnsm) ReadRoot(i int) (cobench.RootRecord, error) {
	if err := checkIndex(i, len(m.refs)); err != nil {
		return cobench.RootRecord{}, err
	}
	rec, err := m.readTuple(dnsmStation, i)
	if err != nil {
		return cobench.RootRecord{}, err
	}
	return m.asm.lendRoot(rec)
}

// UpdateRoots implements Model: replaces the small root tuples in place;
// the dirty shared pages are written back together at flush ("only small
// root tuples in the DASDBS-NSM_Station relation are updated, of which
// there are many on a single page").
func (m *dnsm) UpdateRoots(idxs []int32, mutate func(i int32, r *cobench.RootRecord)) error {
	if err := m.eng.writable("UpdateRoots"); err != nil {
		return err
	}
	for _, idx := range idxs {
		i := int(idx)
		if err := checkIndex(i, len(m.refs)); err != nil {
			return err
		}
		root := &m.asm.upd
		var err error
		if *root, err = m.ReadRoot(i); err != nil {
			return err
		}
		mutate(idx, root)
		if m.enc, err = appendRoot(m.enc[:0], *root); err != nil {
			return err
		}
		if err := m.stations.ReplaceAll(m.refs[i][dnsmStation], []longobj.Component{{Tag: 0, Data: m.enc}}); err != nil {
			return err
		}
	}
	return nil
}

// UpdateObject implements Model: the four nested tuples are re-encoded and
// replaced; tuples whose footprint changes relocate within their relation
// and the transformation table entry is refreshed.
func (m *dnsm) UpdateObject(i int, mutate func(s *cobench.Station) error) error {
	if err := m.eng.writable("UpdateObject"); err != nil {
		return err
	}
	if err := checkIndex(i, len(m.refs)); err != nil {
		return err
	}
	st, err := m.assemble(i, true)
	if err != nil {
		return err
	}
	oldKey := st.Key
	if err := mutate(st); err != nil {
		return err
	}
	st.NoPlatform = int32(len(st.Platforms))
	st.NoSeeing = int32(len(st.Seeings))
	if err := checkKey(m.keyIdx, i, st.Key); err != nil {
		return err
	}
	recs, err := m.tuples(st)
	if err != nil {
		return err
	}
	if m.shared {
		m.refs, m.keyIdx, m.shared = slices.Clone(m.refs), maps.Clone(m.keyIdx), false
	}
	for slot, rec := range recs {
		ref, err := m.stores()[slot].Replace(m.refs[i][slot], []longobj.Component{{Tag: 0, Data: rec}})
		if err != nil {
			return err
		}
		m.refs[i][slot] = ref
	}
	if st.Key != oldKey {
		delete(m.keyIdx, oldKey)
		m.keyIdx[st.Key] = i
	}
	return nil
}

// Flush implements Model.
func (m *dnsm) Flush() error { return m.eng.Flush() }

// Sizes implements Model.
func (m *dnsm) Sizes() SizeReport {
	n := len(m.refs)
	rel := func(s *longobj.Store, name string) RelationSize {
		shared := s.SharedHeap()
		r := RelationSize{
			Name:   "DASDBS-NSM_" + name,
			Tuples: shared.NumRecords() + s.NumLarge(),
			M:      s.TotalPages(),
		}
		if n > 0 {
			r.TuplesPerObject = float64(r.Tuples) / float64(n)
		}
		if r.Tuples > 0 {
			r.AvgTupleBytes = (float64(shared.Bytes()) + float64(s.LargeDataBytes())) / float64(r.Tuples)
		}
		if shared.NumPages() > 0 {
			r.K = shared.TuplesPerPage()
		}
		if s.NumLarge() > 0 {
			hdr, data := s.LargePages()
			r.P = float64(hdr+data) / float64(s.NumLarge())
		}
		return r
	}
	return SizeReport{
		Model: m.Kind().String(),
		Relations: []RelationSize{
			rel(m.stations, "Station"),
			rel(m.plats, "Platform"),
			rel(m.conns, "Connection"),
			rel(m.seeings, "Sightseeing"),
		},
	}
}
