package store

import (
	"fmt"
	"maps"
	"slices"

	"complexobj/cobench"
	"complexobj/internal/longobj"
)

// direct implements both direct storage models of §3.1 and §3.2. The
// physical layout is identical — each station is one clustered object with
// an object header — and only the access strategy differs:
//
//   - DSM (partial=false) always transfers every page of a touched object:
//     "complex objects are stored as a whole on as few disk pages as
//     possible" and are read back the same way;
//   - DASDBS-DSM (partial=true) consults the object header first and then
//     retrieves "only those pages ... that are actually used in a query",
//     and must therefore use per-tuple "change attribute" operations with
//     write-through page pools for updates (§5.3) instead of replacing the
//     whole tuple.
type direct struct {
	eng     *Engine
	partial bool
	objs    *longobj.Store
	addr    []longobj.Ref
	keyIdx  map[int32]int
	shared  bool // addr and keyIdx are a generation's: copy before writing
	asm     assembler
	enc     []byte              // encode buffer of the object, or root record, being stored
	comps   []longobj.Component // its components, aliasing enc
}

func newDirect(e *Engine, partial bool) *direct {
	name := "DSM_Station"
	if partial {
		name = "DASDBS-DSM_Station"
	}
	return &direct{
		eng:     e,
		partial: partial,
		objs:    longobj.New(e.Dev, e.Pool, name),
		keyIdx:  make(map[int32]int),
	}
}

// attach implements Model.
func (m *direct) attach(dir Model) {
	d := dir.(*direct)
	m.addr, m.keyIdx, m.shared = d.addr, d.keyIdx, true
	m.objs.Attach(d.objs)
}

// dirChanged implements Model.
func (m *direct) dirChanged() bool { return !m.shared || m.objs.Changed() }

// Kind implements Model.
func (m *direct) Kind() Kind {
	if m.partial {
		return DASDBSDSM
	}
	return DSM
}

// Engine implements Model.
func (m *direct) Engine() *Engine { return m.eng }

// NumObjects implements Model.
func (m *direct) NumObjects() int { return len(m.addr) }

// Load implements Model.
func (m *direct) Load(stations []*cobench.Station) error {
	if len(m.addr) > 0 {
		return fmt.Errorf("store: %s already loaded", m.Kind())
	}
	// Sizing pass: reserve the arena the inserts below will fill.
	sizer := longobj.NewSizer(m.eng.Dev.PageSize())
	for _, s := range stations {
		sizer.Add(componentsSize(s))
	}
	m.eng.Dev.Reserve(sizer.Pages())
	m.addr = make([]longobj.Ref, 0, len(stations))
	for i, s := range stations {
		comps, err := m.components(s)
		if err != nil {
			return fmt.Errorf("store: encode station %d: %w", i, err)
		}
		ref, err := m.objs.Insert(comps)
		if err != nil {
			return fmt.Errorf("store: insert station %d: %w", i, err)
		}
		m.addr = append(m.addr, ref)
		m.keyIdx[s.Key] = i
	}
	return m.eng.Flush()
}

// fetch reads one whole object: lent until the view's next call, or the
// caller's to keep (UpdateObject's).
func (m *direct) fetch(i int, owned bool) (*cobench.Station, error) {
	comps, err := m.objs.ReadAllShared(m.addr[i])
	if err != nil {
		return nil, err
	}
	return m.assemble(comps, owned)
}

// assemble decodes a whole object's components (valid until the next read
// on m.objs, which is later than this call).
func (m *direct) assemble(comps []longobj.Component, owned bool) (*cobench.Station, error) {
	m.asm.begin(owned)
	if err := m.asm.components(comps); err != nil {
		return nil, err
	}
	return m.asm.station()
}

// FetchByAddress implements Model (query 1a): direct models resolve the
// address in memory and transfer the object's pages.
func (m *direct) FetchByAddress(i int) (*cobench.Station, error) {
	if err := checkIndex(i, len(m.addr)); err != nil {
		return nil, err
	}
	return m.fetch(i, false)
}

// FetchByKey implements Model (query 1b): a value selection has no address
// to go by, so the whole relation is scanned — every object is read and
// its key compared (the paper estimates the full m pages for this query,
// set-oriented selection without early termination). Reading an object is
// the I/O; only a match is assembled.
func (m *direct) FetchByKey(key int32) (*cobench.Station, error) {
	if len(m.addr) == 0 {
		return nil, ErrNotLoaded
	}
	var found *cobench.Station
	for i := range m.addr {
		comps, err := m.objs.ReadAllShared(m.addr[i])
		if err != nil {
			return nil, err
		}
		root, err := rootComponent(comps, i)
		if err != nil {
			return nil, err
		}
		k, err := DecodeRootKey(root)
		if err != nil {
			return nil, err
		}
		if k != key {
			continue
		}
		if found, err = m.assemble(comps, false); err != nil { // last match wins
			return nil, err
		}
	}
	if found == nil {
		return nil, fmt.Errorf("store: no station with key %d", key)
	}
	return found, nil
}

// ScanAll implements Model (query 1c): every object is materialised in
// full, into the one Station the view lends.
func (m *direct) ScanAll(fn func(i int, s *cobench.Station) error) error {
	if len(m.addr) == 0 {
		return ErrNotLoaded
	}
	for i := range m.addr {
		s, err := m.fetch(i, false)
		if err != nil {
			return err
		}
		if err := fn(i, s); err != nil {
			return err
		}
	}
	return nil
}

// wantRoot and wantNavigation select the components queries 2 and 3 decode:
// the root record, and with it the platforms whose connections hold the
// child references.
func wantRoot(tag uint8, _ int) bool       { return tag == TagRoot }
func wantNavigation(tag uint8, _ int) bool { return tag == TagRoot || tag == TagPlatform }

// Navigate implements Model. DSM transfers the whole object; DASDBS-DSM
// the header plus only the pages holding the root record and the platform
// components ("Since the Sightseeing sub-objects are not used in query 2
// and 3, we only need to retrieve the header page and a single data page").
// Either way only those components are copied out and decoded.
func (m *direct) Navigate(i int) (cobench.RootRecord, []int32, error) {
	if err := checkIndex(i, len(m.addr)); err != nil {
		return cobench.RootRecord{}, nil, err
	}
	comps, _, err := m.objs.Read(m.addr[i], !m.partial, wantNavigation)
	if err != nil {
		return cobench.RootRecord{}, nil, err
	}
	var root cobench.RootRecord
	children := m.asm.kidsScratch()
	for _, c := range comps {
		switch c.Tag {
		case TagRoot:
			root, err = m.asm.lendRoot(c.Data)
			if err != nil {
				return cobench.RootRecord{}, nil, err
			}
		case TagPlatform:
			children, err = appendPlatformChildren(children, c.Data)
			if err != nil {
				return cobench.RootRecord{}, nil, err
			}
		}
	}
	return root, m.asm.lendKids(children), nil
}

// ReadRoot implements Model. DSM again pays the full object — in pages
// transferred, the paper's price; DASDBS-DSM reads header + the root
// record's page only. Both copy out the root record and nothing else.
func (m *direct) ReadRoot(i int) (cobench.RootRecord, error) {
	if err := checkIndex(i, len(m.addr)); err != nil {
		return cobench.RootRecord{}, err
	}
	root, _, err := m.readRootComponent(i)
	if err != nil {
		return cobench.RootRecord{}, err
	}
	return m.asm.lendRoot(root)
}

// readRootComponent reads object i the model's way and returns its root
// record and that component's directory index.
func (m *direct) readRootComponent(i int) ([]byte, int, error) {
	comps, idxs, err := m.objs.Read(m.addr[i], !m.partial, wantRoot)
	if err != nil {
		return nil, 0, err
	}
	if len(comps) != 1 {
		return nil, 0, fmt.Errorf("store: object %d has %d root components", i, len(comps))
	}
	return comps[0].Data, idxs[0], nil
}

// rootComponent returns the root record among object i's components.
func rootComponent(comps []longobj.Component, i int) ([]byte, error) {
	for _, c := range comps {
		if c.Tag == TagRoot {
			return c.Data, nil
		}
	}
	return nil, fmt.Errorf("store: object %d lost its root", i)
}

// UpdateRoots implements Model.
//
// DSM replaces the entire nested tuple — a batched "replace set of tuples"
// whose dirty pages are written together at the next flush/overflow.
//
// DASDBS-DSM "cannot replace the entire tuple since for each tuple only
// those pages are retrieved that are actually needed", so it issues one
// change-attribute operation per object, each paying an immediate page-pool
// write (§5.3) — the model's update anomaly.
func (m *direct) UpdateRoots(idxs []int32, mutate func(i int32, r *cobench.RootRecord)) error {
	for _, idx := range idxs {
		i := int(idx)
		if err := checkIndex(i, len(m.addr)); err != nil {
			return err
		}
		if m.partial {
			data, cidx, err := m.readRootComponent(i)
			if err != nil {
				return err
			}
			root := &m.asm.upd
			if *root, err = m.asm.lendRoot(data); err != nil {
				return err
			}
			mutate(idx, root)
			if m.enc, err = appendRoot(m.enc[:0], *root); err != nil {
				return err
			}
			if _, err := m.objs.ChangeComponent(m.addr[i], cidx, m.enc); err != nil {
				return err
			}
			continue
		}
		comps, err := m.objs.ReadAllShared(m.addr[i])
		if err != nil {
			return err
		}
		replaced := false
		for ci := range comps {
			if comps[ci].Tag != TagRoot {
				continue
			}
			root := &m.asm.upd
			if *root, err = m.asm.lendRoot(comps[ci].Data); err != nil {
				return err
			}
			mutate(idx, root)
			if m.enc, err = appendRoot(m.enc[:0], *root); err != nil {
				return err
			}
			comps[ci].Data = m.enc
			replaced = true
		}
		if !replaced {
			return fmt.Errorf("store: object %d lost its root", i)
		}
		if err := m.objs.ReplaceAll(m.addr[i], comps); err != nil {
			return err
		}
	}
	return nil
}

// UpdateObject implements Model: the whole object is re-encoded and
// replaced; if its page footprint changes it relocates to a fresh page run
// and the address table is updated (the in-memory table costs nothing, per
// the paper's accounting).
func (m *direct) UpdateObject(i int, mutate func(s *cobench.Station) error) error {
	if err := checkIndex(i, len(m.addr)); err != nil {
		return err
	}
	st, err := m.fetch(i, true)
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
	comps, err := m.components(st)
	if err != nil {
		return err
	}
	ref, err := m.objs.Replace(m.addr[i], comps)
	if err != nil {
		return err
	}
	if ref == m.addr[i] && st.Key == oldKey {
		return nil // replaced in place: the tables stand
	}
	if m.shared {
		m.addr, m.keyIdx, m.shared = slices.Clone(m.addr), maps.Clone(m.keyIdx), false
	}
	m.addr[i] = ref
	if st.Key != oldKey {
		delete(m.keyIdx, oldKey)
		m.keyIdx[st.Key] = i
	}
	return nil
}

// Flush implements Model.
func (m *direct) Flush() error { return m.eng.Flush() }

// Sizes implements Model.
func (m *direct) Sizes() SizeReport {
	n := len(m.addr)
	rel := RelationSize{Name: m.Kind().String() + "_Station", Tuples: n}
	if n > 0 {
		rel.TuplesPerObject = 1
		hdr, data := m.objs.LargePages()
		shared := m.objs.SharedHeap()
		rel.M = m.objs.TotalPages()
		rel.AvgTupleBytes = (float64(m.objs.LargeDataBytes()) + float64(shared.Bytes())) / float64(n)
		if m.objs.NumLarge() > 0 {
			rel.P = float64(hdr+data) / float64(m.objs.NumLarge())
		}
		if shared.NumPages() > 0 {
			rel.K = shared.TuplesPerPage()
		}
	}
	return SizeReport{Model: m.Kind().String(), Relations: []RelationSize{rel}}
}
