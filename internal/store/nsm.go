package store

import (
	"fmt"
	"maps"
	"slices"

	"complexobj/cobench"
	"complexobj/internal/btree"
	"complexobj/internal/disk"
	"complexobj/internal/heap"
	"complexobj/internal/slab"
	"complexobj/nf2"
)

// Flat relation schemas of the normalized storage model (paper Figure 3).
// Three key attributes preserve the object structure: a globally unique
// root foreign key, a parent foreign key, and an own key; superfluous keys
// are omitted exactly as in the paper (no parent key on the first nesting
// level, no own key on the lowest level, only the own key at the root).
var (
	// nsmStationType is identical to RootType: the root relation carries
	// only its own key plus the atomic attributes.
	nsmStationType = RootType

	nsmPlatformType = nf2.MustTupleType("NSM_Platform",
		nf2.Attr{Name: "RootKey", Type: nf2.IntType()},
		nf2.Attr{Name: "OwnKey", Type: nf2.IntType()},
		nf2.Attr{Name: "PlatformNr", Type: nf2.IntType()},
		nf2.Attr{Name: "NoLine", Type: nf2.IntType()},
		nf2.Attr{Name: "TicketCode", Type: nf2.IntType()},
		nf2.Attr{Name: "Information", Type: nf2.StringType(cobench.StrSize)},
	)

	nsmConnectionType = nf2.MustTupleType("NSM_Connection",
		nf2.Attr{Name: "RootKey", Type: nf2.IntType()},
		nf2.Attr{Name: "ParentKey", Type: nf2.IntType()},
		nf2.Attr{Name: "LineNr", Type: nf2.IntType()},
		nf2.Attr{Name: "KeyConnection", Type: nf2.IntType()},
		nf2.Attr{Name: "OidConnection", Type: nf2.LinkType()},
		nf2.Attr{Name: "DepartureTimes", Type: nf2.StringType(cobench.StrSize)},
	)

	nsmSightseeingType = nf2.MustTupleType("NSM_Sightseeing",
		nf2.Attr{Name: "RootKey", Type: nf2.IntType()},
		nf2.Attr{Name: "SeeingNr", Type: nf2.IntType()},
		nf2.Attr{Name: "Description", Type: nf2.StringType(cobench.StrSize)},
		nf2.Attr{Name: "Location", Type: nf2.StringType(cobench.StrSize)},
		nf2.Attr{Name: "History", Type: nf2.StringType(cobench.StrSize)},
		nf2.Attr{Name: "Remarks", Type: nf2.StringType(cobench.StrSize)},
	)
)

// nsm implements the normalized storage model (§3.3), in two flavours:
//
//   - pure NSM (indexed=false): value queries can only scan; object
//     assembly joins the four relations. Following the paper's §4
//     assumption ("all joins can be performed in main memory"), navigation
//     locates an object's tuples positionally but must still visit the
//     platform tuples to join stations to connections.
//   - NSM+index (indexed=true): a zero-cost in-memory index maps keys to
//     tuple positions, so "a page is read from disk then and only then if
//     a tuple it stores is requested".
type nsm struct {
	eng     *Engine
	indexed bool
	// countIndexIO replaces the free in-memory index with disk-resident
	// B+-trees whose page accesses are counted (the experiments package's
	// index-accounting ablation). Only meaningful with indexed=true.
	countIndexIO bool

	stations *heap.Heap
	plats    *heap.Heap
	conns    *heap.Heap
	seeings  *heap.Heap

	stationRID []heap.RID
	platRIDs   [][]heap.RID
	connRIDs   [][]heap.RID
	seeingRIDs [][]heap.RID
	keyIdx     map[int32]int
	shared     bool // the tables above are a generation's: copy before writing
	nPlats     int
	nConns     int
	nSeeings   int
	// rids backs the per-object lists insertSubs fills. It is this model's
	// alone: attach shares the tables above, never the slab, so a view's
	// inserts cut from a slab of its own.
	rids slab.Slab[heap.RID]

	// Disk-resident indexes (countIndexIO only): station key -> RID and
	// Pack(object, seq) -> RID per sub-relation.
	stationTree *btree.Tree
	platTree    *btree.Tree
	connTree    *btree.Tree
	seeingTree  *btree.Tree

	// ridScratch backs groupRIDs results between probes. Callers fully
	// consume the slice before the next probe, and a model — a counted
	// view's too — has one driver at a time, so one scratch per model is
	// safe.
	ridScratch []heap.RID

	// enc is the encode buffer of the tuple being inserted or updated.
	enc []byte

	// asm assembles point fetches. Records are met one page view at a time,
	// so there is nothing to measure first: its lent arena chunks and
	// settles on one buffer; the owned backing of UpdateObject's fetches
	// chunks and carries over from fetch to fetch, so no chunk tail is
	// wasted.
	asm assembler
	// scans lends ScanAll its staging: the engine's Options.Scans, or one
	// of the model's own.
	scans *ScanStages
}

// packRID encodes a heap RID as a B+-tree value.
func packRID(r heap.RID) uint64 { return uint64(r.Page)<<16 | uint64(r.Slot) }

// unpackRID inverts packRID.
func unpackRID(v uint64) heap.RID {
	return heap.RID{Page: disk.PageID(v >> 16), Slot: uint16(v & 0xFFFF)}
}

func newNSM(e *Engine, indexed bool) *nsm {
	scans := e.opts.Scans
	if scans == nil {
		scans = new(ScanStages)
	}
	return &nsm{
		eng:      e,
		indexed:  indexed,
		stations: heap.New(e.Dev, e.Pool, "NSM_Station"),
		plats:    heap.New(e.Dev, e.Pool, "NSM_Platform"),
		conns:    heap.New(e.Dev, e.Pool, "NSM_Connection"),
		seeings:  heap.New(e.Dev, e.Pool, "NSM_Sightseeing"),
		keyIdx:   make(map[int32]int),
		scans:    scans,
	}
}

// attach implements Model (stationRID is never copied: root tuples stay put).
func (m *nsm) attach(dir Model) {
	d := dir.(*nsm)
	m.stationRID, m.keyIdx, m.shared = d.stationRID, d.keyIdx, true
	m.platRIDs, m.connRIDs, m.seeingRIDs = d.platRIDs, d.connRIDs, d.seeingRIDs
	m.nPlats, m.nConns, m.nSeeings = d.nPlats, d.nConns, d.nSeeings
	m.stations.Attach(d.stations)
	m.plats.Attach(d.plats)
	m.conns.Attach(d.conns)
	m.seeings.Attach(d.seeings)
}

// dirChanged implements Model.
func (m *nsm) dirChanged() bool {
	return !m.shared || m.stations.Changed() || m.plats.Changed() || m.conns.Changed() || m.seeings.Changed()
}

// Kind implements Model.
func (m *nsm) Kind() Kind {
	if m.indexed {
		return NSMIndex
	}
	return NSM
}

// Engine implements Model.
func (m *nsm) Engine() *Engine { return m.eng }

// NumObjects implements Model.
func (m *nsm) NumObjects() int { return len(m.stationRID) }

// Load implements Model: objects are unnested into four flat relations,
// with the tuples of one object inserted back to back so they cluster.
func (m *nsm) Load(stations []*cobench.Station) error {
	if len(m.stationRID) > 0 {
		return fmt.Errorf("store: %s already loaded", m.Kind())
	}
	m.reserve(stations)
	// Sized once: these tables are what a base keeps of its loader.
	n := len(stations)
	m.stationRID, m.keyIdx = make([]heap.RID, 0, n), make(map[int32]int, n)
	m.platRIDs, m.connRIDs, m.seeingRIDs = make([][]heap.RID, 0, n), make([][]heap.RID, 0, n), make([][]heap.RID, 0, n)
	for i, s := range stations {
		var err error
		if m.enc, err = appendRoot(m.enc[:0], s.Root()); err != nil {
			return err
		}
		rid, err := m.stations.Insert(m.enc)
		if err != nil {
			return err
		}
		m.stationRID = append(m.stationRID, rid)
		m.keyIdx[s.Key] = i
		prids, crids, grids, err := m.insertSubs(s)
		if err != nil {
			return err
		}
		m.platRIDs = append(m.platRIDs, prids)
		m.connRIDs = append(m.connRIDs, crids)
		m.seeingRIDs = append(m.seeingRIDs, grids)
	}
	if m.countIndexIO {
		if err := m.buildTrees(); err != nil {
			return err
		}
	}
	return m.eng.Flush()
}

// reserve is the sizing pass: it reserves the arena Load's inserts will
// fill. Every relation is flat, so its tuples have one size.
func (m *nsm) reserve(stations []*cobench.Station) {
	var sizers [4]heap.Sizer
	var sizes [4]int
	for r, rel := range m.relations() {
		sizes[r] = rel.tt.FlatSize()
	}
	for _, s := range stations {
		counts := [4]int{1, len(s.Platforms), 0, len(s.Seeings)}
		for _, p := range s.Platforms {
			counts[2] += len(p.Conns)
		}
		for r, n := range counts {
			for ; n > 0; n-- {
				sizers[r].Add(sizes[r])
			}
		}
	}
	pages := 0
	for _, z := range sizers {
		pages += z.Pages()
	}
	m.eng.Dev.Reserve(pages)
}

// insert stores in h the tuple a was supplied with — encoded into the
// model's one encode buffer, which h copies into a page before the next
// tuple overwrites it.
func (m *nsm) insert(h *heap.Heap, a *nf2.Appender) (heap.RID, error) {
	var err error
	if m.enc, err = a.Finish(); err != nil {
		return heap.RID{}, err
	}
	return h.Insert(m.enc)
}

// ridChunk is how many RIDs a model's slab (or RestoreMeta's) allocates
// at once: a paper-scale object has ≈ 13 sub-tuples, so a chunk holds
// some 300 objects' lists.
const ridChunk = 4096

// insertSubs unnests the sub-objects of s into the three sub-relations,
// back to back so they cluster, and returns the tuple positions, cut from
// the model's slab.
func (m *nsm) insertSubs(s *cobench.Station) (prids, crids, grids []heap.RID, err error) {
	nConns := 0
	for _, p := range s.Platforms {
		nConns += len(p.Conns)
	}
	prids = m.rids.Cut(len(s.Platforms), ridChunk)
	crids = m.rids.Cut(nConns, ridChunk)
	grids = m.rids.Cut(len(s.Seeings), ridChunk)
	c := 0
	for pi := range s.Platforms {
		p := &s.Platforms[pi]
		a := nsmPlatformType.Appender(m.enc[:0])
		a.Int(s.Key)
		a.Int(int32(pi + 1))
		putPlatform(&a, p)
		if prids[pi], err = m.insert(m.plats, &a); err != nil {
			return nil, nil, nil, err
		}
		m.nPlats++
		for ci := range p.Conns {
			a := nsmConnectionType.Appender(m.enc[:0])
			a.Int(s.Key)
			a.Int(int32(pi + 1))
			putConnection(&a, &p.Conns[ci])
			if crids[c], err = m.insert(m.conns, &a); err != nil {
				return nil, nil, nil, err
			}
			c++
			m.nConns++
		}
	}
	for gi := range s.Seeings {
		a := nsmSightseeingType.Appender(m.enc[:0])
		a.Int(s.Key)
		putSightseeing(&a, &s.Seeings[gi])
		if grids[gi], err = m.insert(m.seeings, &a); err != nil {
			return nil, nil, nil, err
		}
		m.nSeeings++
	}
	return prids, crids, grids, nil
}

// buildTrees materializes the disk-resident indexes over the loaded
// relations, after a private bulk load or when a counted view lands on a
// base (load-time I/O is excluded from measurements either way). Keys and
// positions come from the directory, so both build the same trees on the
// same pages.
func (m *nsm) buildTrees() error {
	keys, err := invertKeys(m.keyIdx, len(m.stationRID))
	if err != nil {
		return err
	}
	if m.stationTree, err = btree.New(m.eng.Dev, m.eng.Pool); err != nil {
		return err
	}
	if m.platTree, err = btree.New(m.eng.Dev, m.eng.Pool); err != nil {
		return err
	}
	if m.connTree, err = btree.New(m.eng.Dev, m.eng.Pool); err != nil {
		return err
	}
	if m.seeingTree, err = btree.New(m.eng.Dev, m.eng.Pool); err != nil {
		return err
	}
	for i, key := range keys {
		if err := m.stationTree.Insert(uint64(uint32(key)), packRID(m.stationRID[i])); err != nil {
			return err
		}
		for j, rid := range m.platRIDs[i] {
			if err := m.platTree.Insert(btree.Pack(uint32(i), uint32(j)), packRID(rid)); err != nil {
				return err
			}
		}
		for j, rid := range m.connRIDs[i] {
			if err := m.connTree.Insert(btree.Pack(uint32(i), uint32(j)), packRID(rid)); err != nil {
				return err
			}
		}
		for j, rid := range m.seeingRIDs[i] {
			if err := m.seeingTree.Insert(btree.Pack(uint32(i), uint32(j)), packRID(rid)); err != nil {
				return err
			}
		}
	}
	return nil
}

// stationRIDAt resolves the root tuple position of object i, through the
// counted index when enabled.
func (m *nsm) stationRIDAt(i int) (heap.RID, error) {
	if !m.countIndexIO {
		return m.stationRID[i], nil
	}
	v, err := m.stationTree.Get(uint64(uint32(cobench.KeyOf(i))))
	if err != nil {
		return heap.RID{}, err
	}
	return unpackRID(v), nil
}

// groupRIDs resolves the sub-relation tuple positions of object i.
func (m *nsm) groupRIDs(tree *btree.Tree, inMemory []heap.RID, i int) ([]heap.RID, error) {
	if !m.countIndexIO {
		return inMemory, nil
	}
	rids := m.ridScratch[:0]
	from, to := btree.PackRange(uint32(i))
	err := tree.Scan(from, to, func(_, v uint64) bool {
		rids = append(rids, unpackRID(v))
		return true
	})
	m.ridScratch = rids
	return rids, err
}

// IndexStats reports the disk-resident index footprint (countIndexIO
// only): total node pages and the station tree height.
func (m *nsm) IndexStats() (pages, height int) {
	if !m.countIndexIO {
		return 0, 0
	}
	pages = m.stationTree.Pages() + m.platTree.Pages() + m.connTree.Pages() + m.seeingTree.Pages()
	return pages, m.stationTree.Height()
}

// The assembler's view of the flat relations: the key attribute positions
// in front of each relation's payload attributes (Figure 3).
const (
	nsmRootKey     = 0 // every relation: the root (foreign) key
	nsmPlatOwn     = 1
	nsmPlatPayload = 2
	nsmConnParent  = 1
	nsmConnPayload = 2
	nsmSeePayload  = 1
)

// feedPlatform, feedConnection and feedSightseeing stage one flat tuple of
// object slot obj (bytes valid only during the heap view/scan callback).
func (a *assembler) feedPlatform(obj int32, rec []byte) error {
	own, err := intAttr(nsmPlatformType, rec, nsmPlatOwn)
	if err != nil {
		return err
	}
	return a.platform(obj, own, nsmPlatformType, nsmPlatPayload, rec)
}

func (a *assembler) feedConnection(obj int32, rec []byte) error {
	parent, err := intAttr(nsmConnectionType, rec, nsmConnParent)
	if err != nil {
		return err
	}
	return a.connection(obj, parent, nsmConnectionType, nsmConnPayload, rec)
}

func (a *assembler) feedSightseeing(obj int32, rec []byte) error {
	return a.sightseeing(obj, nsmSightseeingType, nsmSeePayload, rec)
}

// nsmRelation is one flat relation as the assembly paths see it: where its
// tuples are, how to find one object's, and the feed that stages them.
type nsmRelation struct {
	heap *heap.Heap
	tt   *nf2.TupleType
	tree *btree.Tree  // countIndexIO only
	rids [][]heap.RID // per object; nil for the root relation
	feed func(a *assembler, obj int32, rec []byte) error
}

// relations lists the four flat relations in join order.
func (m *nsm) relations() [4]nsmRelation {
	return [4]nsmRelation{
		{m.stations, nsmStationType, m.stationTree, nil, (*assembler).root},
		{m.plats, nsmPlatformType, m.platTree, m.platRIDs, (*assembler).feedPlatform},
		{m.conns, nsmConnectionType, m.connTree, m.connRIDs, (*assembler).feedConnection},
		{m.seeings, nsmSightseeingType, m.seeingTree, m.seeingRIDs, (*assembler).feedSightseeing},
	}
}

// fetchAssembled reads all tuples of object i by position, each through a
// zero-copy heap view (the assembler copies what it keeps), and joins
// them: lent until the view's next call, or the caller's to keep
// (UpdateObject's).
func (m *nsm) fetchAssembled(i int, owned bool) (*cobench.Station, error) {
	srid, err := m.stationRIDAt(i)
	if err != nil {
		return nil, err
	}
	a := &m.asm
	a.begin(owned)
	if err := m.stations.View(srid, func(rec []byte) error { return a.root(0, rec) }); err != nil {
		return nil, err
	}
	rels := m.relations()
	for _, rel := range rels[1:] {
		rids, err := m.groupRIDs(rel.tree, rel.rids[i], i)
		if err != nil {
			return nil, err
		}
		for _, rid := range rids {
			if err := rel.heap.View(rid, func(rec []byte) error { return rel.feed(a, 0, rec) }); err != nil {
				return nil, err
			}
		}
	}
	return a.station()
}

// FetchByAddress implements Model: only the indexed variant has an
// addressing mechanism ("With NSM we have no identifiers, so query 1a is
// not relevant").
func (m *nsm) FetchByAddress(i int) (*cobench.Station, error) {
	if !m.indexed {
		return nil, ErrNoAddressAccess
	}
	if err := checkIndex(i, len(m.stationRID)); err != nil {
		return nil, err
	}
	return m.fetchAssembled(i, false)
}

// FetchByKey implements Model. Pure NSM scans all four relations and joins
// the matching tuples; NSM+index scans only the root relation for the
// value selection and fetches the sub-relation tuples through the index.
func (m *nsm) FetchByKey(key int32) (*cobench.Station, error) {
	if len(m.stationRID) == 0 {
		return nil, ErrNotLoaded
	}
	if m.indexed {
		if m.countIndexIO {
			// A real key index turns the value selection into a tree
			// descent — the flip side of paying for index I/O elsewhere.
			if _, err := m.stationTree.Get(uint64(uint32(key))); err != nil {
				return nil, fmt.Errorf("store: no station with key %d: %w", key, err)
			}
			idx, ok := m.keyIdx[key]
			if !ok {
				return nil, fmt.Errorf("store: no station with key %d", key)
			}
			return m.fetchAssembled(idx, false)
		}
		idx := -1
		var scanErr error
		err := m.stations.Scan(func(_ heap.RID, rec []byte) bool {
			k, kerr := DecodeRootKey(rec)
			if kerr == nil && k == key {
				if j, ok := m.keyIdx[key]; ok {
					idx = j
				}
			}
			scanErr = kerr
			return kerr == nil // set-oriented selection: no early exit on a match
		})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			return nil, err
		}
		if idx < 0 {
			return nil, fmt.Errorf("store: no station with key %d", key)
		}
		return m.fetchAssembled(idx, false)
	}
	a := &m.asm
	a.begin(false)
	rels := m.relations()
	err := m.scanRelations(a, rels[:], func(rootKey int32) (int32, bool, error) { return 0, rootKey == key, nil })
	if err != nil {
		return nil, err
	}
	if len(a.roots) == 0 {
		return nil, fmt.Errorf("store: no station with key %d", key)
	}
	return a.station()
}

// scanRelations runs one physical scan of each of rels and stages in a
// every tuple whose root key slot accepts, under the object slot it names.
// Each relation is scanned to its end (set-oriented selection: a match is
// no reason to stop); the first tuple that does not decode ends the query
// with its error.
func (m *nsm) scanRelations(a *assembler, rels []nsmRelation, slot func(rootKey int32) (obj int32, ok bool, err error)) error {
	for _, rel := range rels {
		var scanErr error
		err := rel.heap.Scan(func(_ heap.RID, rec []byte) bool {
			key, err := intAttr(rel.tt, rec, nsmRootKey)
			if err == nil {
				var obj int32
				var ok bool
				if obj, ok, err = slot(key); ok {
					err = rel.feed(a, obj, rec)
				}
			}
			scanErr = err
			return err == nil
		})
		if err != nil {
			return err
		}
		if scanErr != nil {
			return scanErr
		}
	}
	return nil
}

// objectOf is the object slot of a root key: every key names one.
func (m *nsm) objectOf(rootKey int32) (int32, bool, error) {
	i, ok := m.keyIdx[rootKey]
	if !ok {
		return 0, false, fmt.Errorf("store: unknown root key %d", rootKey)
	}
	return int32(i), true, nil
}

// ScanAll implements Model: one physical scan of each relation, joined in
// memory (the paper's best-case in-memory join assumption). The root,
// platform and connection relations are staged whole — arrays sized once
// from the tuple counts, strings in one arena — and the sightseeing
// relation, the largest and the last, is streamed (staging.stream): an
// object is finished into the one Station the scan lends once its last
// sightseeing tuple is staged — its count is len(seeingRIDs[i]), in
// memory — and goes to fn once the page it completed on is unfixed, so fn
// runs with no frame of the scan pinned. The scans and their fixes are
// those of a staging of all four relations. The staging is not the
// point-fetch assembler, so a fetch from fn leaves it alone: it is lent to
// the scan (m.scans) and goes back when the scan returns, so once a scan
// this size has run the next allocates nothing, on whichever engine
// shares the stagings.
func (m *nsm) ScanAll(fn func(i int, s *cobench.Station) error) error {
	n := len(m.stationRID)
	if n == 0 {
		return ErrNotLoaded
	}
	m.eng.beginScan()
	defer m.eng.endScan()
	a := m.scans.take()
	defer m.scans.put(a)
	a.begin(false)
	a.roots = slices.Grow(a.roots, n)
	a.plats = slices.Grow(a.plats, m.nPlats)
	a.conns = slices.Grow(a.conns, m.nConns)
	rels := m.relations()
	if err := m.scanRelations(&a.assembler, rels[:3], m.objectOf); err != nil {
		return err
	}
	a.stream(n, func(i int) int { return len(m.seeingRIDs[i]) })
	if err := a.handOut(fn); err != nil { // the objects with no sightseeings in front
		return err
	}
	see := rels[3]
	stage := func(rec []byte) error {
		key, err := intAttr(see.tt, rec, nsmRootKey)
		if err != nil {
			return err
		}
		obj, _, err := m.objectOf(key)
		if err != nil {
			return err
		}
		return a.streamed(obj, rec)
	}
	var scanErr error
	err := see.heap.ScanPages(func(_ heap.RID, rec []byte) bool {
		if a.ready() { // the ready object goes first, once the page is unfixed
			a.keep(rec)
			return true
		}
		scanErr = stage(rec)
		return scanErr == nil
	}, func() error {
		if scanErr != nil {
			return scanErr
		}
		if err := a.handOut(fn); err != nil {
			return err
		}
		return a.kept(func(rec []byte) error {
			if err := stage(rec); err != nil {
				return err
			}
			return a.handOut(fn)
		})
	})
	if err != nil {
		return err
	}
	return a.finished()
}

// Navigate implements Model: the root tuple plus the object's connection
// tuples; pure NSM additionally joins through the platform tuples (no
// index to shortcut the Station->Platform->Connection path).
func (m *nsm) Navigate(i int) (cobench.RootRecord, []int32, error) {
	if err := checkIndex(i, len(m.stationRID)); err != nil {
		return cobench.RootRecord{}, nil, err
	}
	root, err := m.ReadRoot(i)
	if err != nil {
		return cobench.RootRecord{}, nil, err
	}
	if !m.indexed {
		for _, rid := range m.platRIDs[i] {
			if err := m.plats.View(rid, func([]byte) error { return nil }); err != nil {
				return cobench.RootRecord{}, nil, err
			}
		}
	}
	crids, err := m.groupRIDs(m.connTree, m.connRIDs[i], i)
	if err != nil {
		return cobench.RootRecord{}, nil, err
	}
	children := slices.Grow(m.asm.kidsScratch(), len(crids))
	for _, rid := range crids {
		err := m.conns.View(rid, func(rec []byte) error {
			oid, err := intAttr(nsmConnectionType, rec, 4) // OidConnection
			if err != nil {
				return err
			}
			children = append(children, oid)
			return nil
		})
		if err != nil {
			return cobench.RootRecord{}, nil, err
		}
	}
	return root, m.asm.lendKids(children), nil
}

// ReadRoot implements Model: one tuple access in the root relation.
func (m *nsm) ReadRoot(i int) (cobench.RootRecord, error) {
	if err := checkIndex(i, len(m.stationRID)); err != nil {
		return cobench.RootRecord{}, err
	}
	srid, err := m.stationRIDAt(i)
	if err != nil {
		return cobench.RootRecord{}, err
	}
	var root cobench.RootRecord
	err = m.stations.View(srid, func(rec []byte) error {
		r, err := m.asm.lendRoot(rec)
		if err != nil {
			return err
		}
		root = r
		return nil
	})
	return root, err
}

// UpdateRoots implements Model: in-place updates of the small root tuples;
// many share a page, so a batch of updates dirties few pages which are
// written together at flush ("With DASDBS-NSM only small root tuples ...
// are updated, of which there are many on a single page" — the same holds
// for NSM's root relation).
func (m *nsm) UpdateRoots(idxs []int32, mutate func(i int32, r *cobench.RootRecord)) error {
	if err := m.eng.writable("UpdateRoots"); err != nil {
		return err
	}
	for _, idx := range idxs {
		i := int(idx)
		if err := checkIndex(i, len(m.stationRID)); err != nil {
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
		srid, err := m.stationRIDAt(i)
		if err != nil {
			return err
		}
		if err := m.stations.Update(srid, m.enc); err != nil {
			return err
		}
	}
	return nil
}

// UpdateObject implements Model: the root tuple is updated in place (it
// has a fixed size) and the sub-relation tuples are deleted and
// reinserted. Reinserted tuples append at the relation tails, so heavy
// structural churn gradually erodes the load-time clustering — the
// realistic behaviour of a normalized store. Not supported under
// CountIndexIO (the ablation's B+-trees are append-only).
func (m *nsm) UpdateObject(i int, mutate func(s *cobench.Station) error) error {
	if err := m.eng.writable("UpdateObject"); err != nil {
		return err
	}
	if err := checkIndex(i, len(m.stationRID)); err != nil {
		return err
	}
	if m.countIndexIO {
		return fmt.Errorf("store: %s: structural updates unsupported with counted index I/O", m.Kind())
	}
	st, err := m.fetchAssembled(i, true)
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
	if m.enc, err = appendRoot(m.enc[:0], st.Root()); err != nil {
		return err
	}
	if err := m.stations.Update(m.stationRID[i], m.enc); err != nil {
		return err
	}
	if m.shared {
		m.platRIDs, m.connRIDs, m.seeingRIDs = slices.Clone(m.platRIDs), slices.Clone(m.connRIDs), slices.Clone(m.seeingRIDs)
		m.keyIdx, m.shared = maps.Clone(m.keyIdx), false
	}
	for _, rid := range m.platRIDs[i] {
		if err := m.plats.Delete(rid); err != nil {
			return err
		}
	}
	for _, rid := range m.connRIDs[i] {
		if err := m.conns.Delete(rid); err != nil {
			return err
		}
	}
	for _, rid := range m.seeingRIDs[i] {
		if err := m.seeings.Delete(rid); err != nil {
			return err
		}
	}
	m.nPlats -= len(m.platRIDs[i])
	m.nConns -= len(m.connRIDs[i])
	m.nSeeings -= len(m.seeingRIDs[i])
	prids, crids, grids, err := m.insertSubs(st)
	if err != nil {
		return err
	}
	m.platRIDs[i] = prids
	m.connRIDs[i] = crids
	m.seeingRIDs[i] = grids
	if st.Key != oldKey {
		delete(m.keyIdx, oldKey)
		m.keyIdx[st.Key] = i
	}
	return nil
}

// Flush implements Model.
func (m *nsm) Flush() error { return m.eng.Flush() }

// Sizes implements Model.
func (m *nsm) Sizes() SizeReport {
	n := len(m.stationRID)
	prefix := "NSM_"
	rel := func(h *heap.Heap, name string, tuples int) RelationSize {
		r := RelationSize{
			Name:          prefix + name,
			Tuples:        tuples,
			AvgTupleBytes: h.AvgRecordSize(),
			K:             h.TuplesPerPage(),
			M:             h.NumPages(),
		}
		if n > 0 {
			r.TuplesPerObject = float64(tuples) / float64(n)
		}
		return r
	}
	return SizeReport{
		Model: m.Kind().String(),
		Relations: []RelationSize{
			rel(m.stations, "Station", n),
			rel(m.plats, "Platform", m.nPlats),
			rel(m.conns, "Connection", m.nConns),
			rel(m.seeings, "Sightseeing", m.nSeeings),
		},
	}
}
