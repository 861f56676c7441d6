package store

import (
	"errors"
	"fmt"

	"complexobj/internal/disk"
	"complexobj/internal/heap"
	"complexobj/internal/longobj"
	"complexobj/internal/slab"
	"complexobj/internal/wire"
)

// This file implements Model.SnapshotMeta / Model.RestoreMeta for the
// storage models: the serialization of everything a loaded model keeps
// outside the device pages — address tables, key indexes, heap and
// long-object directories. A snapshot is the device arena plus this blob;
// restoring both yields a model whose every subsequent query performs
// bit-identical I/O to the freshly loaded original (pinned by the
// snapshot round-trip tests).
//
// Each model versions its own blob so the formats can evolve
// independently of the snapshot container.

const (
	directMetaVersion = 1
	nsmMetaVersion    = 1
	dnsmMetaVersion   = 1
)

// ErrRestore reports an invalid or mismatched metadata blob.
var ErrRestore = errors.New("store: snapshot metadata restore failed")

// errCountedIndex refuses to snapshot or share a counted NSM+index model:
// its B+-trees live in the engine's own pages.
var errCountedIndex = errors.New("snapshots unsupported with counted index I/O (the B+-trees live in the engine's own pages)")

// ridLen is the encoded size of a heap.RID (u32 page + u16 slot).
const ridLen = 6

func appendRID(b []byte, rid heap.RID) []byte {
	b = wire.AppendU32(b, uint32(rid.Page))
	return wire.AppendU16(b, rid.Slot)
}

func readRID(r *wire.Reader) heap.RID {
	return heap.RID{Page: disk.PageID(r.U32()), Slot: r.U16()}
}

// restoreKey registers object i's key read from a blob. A key selects one
// object, so a blob that repeats one is corrupt (a map would silently keep
// the later object, and the earlier would have no key).
func restoreKey(keyIdx map[int32]int, key int32, i int) error {
	if j, dup := keyIdx[key]; dup {
		return fmt.Errorf("%w: objects %d and %d share key %d", ErrRestore, j, i, key)
	}
	keyIdx[key] = i
	return nil
}

// invertKeys rebuilds the dense key array from a key->index map.
func invertKeys(keyIdx map[int32]int, n int) ([]int32, error) {
	keys := make([]int32, n)
	seen := make([]bool, n)
	for k, i := range keyIdx {
		if i < 0 || i >= n || seen[i] {
			return nil, fmt.Errorf("%w: corrupt key index (key %d -> %d)", ErrRestore, k, i)
		}
		keys[i] = k
		seen[i] = true
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("%w: object %d has no key", ErrRestore, i)
		}
	}
	return keys, nil
}

// --- direct (DSM / DASDBS-DSM) ----------------------------------------------

// SnapshotMeta implements Model.
func (m *direct) SnapshotMeta() ([]byte, error) {
	keys, err := invertKeys(m.keyIdx, len(m.addr))
	if err != nil {
		return nil, err
	}
	// Sized exactly up front: the blob is O(objects) and encoded on every
	// commit, where growing by doubling allocated three times its size.
	b := make([]byte, 0, 1+4+len(m.addr)*(longobj.RefLen+4)+m.objs.StateLen())
	b = wire.AppendU8(b, directMetaVersion)
	b = wire.AppendU32(b, uint32(len(m.addr)))
	for i, ref := range m.addr {
		b = longobj.AppendRef(b, ref)
		b = wire.AppendU32(b, uint32(keys[i]))
	}
	return m.objs.AppendState(b), nil
}

// RestoreMeta implements Model.
func (m *direct) RestoreMeta(meta []byte) error {
	r := wire.NewReader(meta)
	if v := r.U8(); v != directMetaVersion && r.Err() == nil {
		return fmt.Errorf("direct meta version %d", v)
	}
	n := r.Len(13) // Ref (9 bytes) + u32 key per object
	m.addr = make([]longobj.Ref, n)
	m.keyIdx = make(map[int32]int, n)
	for i := range m.addr {
		m.addr[i] = longobj.ReadRef(r)
		if err := restoreKey(m.keyIdx, int32(r.U32()), i); err != nil {
			return err
		}
	}
	if err := m.objs.RestoreState(r); err != nil {
		return err
	}
	return r.Close()
}

// --- nsm (NSM / NSM+index) --------------------------------------------------

// SnapshotMeta implements Model.
func (m *nsm) SnapshotMeta() ([]byte, error) {
	if m.countIndexIO {
		return nil, fmt.Errorf("store: %s: %w", m.Kind(), errCountedIndex)
	}
	n := len(m.stationRID)
	keys, err := invertKeys(m.keyIdx, n)
	if err != nil {
		return nil, err
	}
	size := 1 + 4 + n*(ridLen+4+3*4)
	for i := 0; i < n; i++ {
		size += (len(m.platRIDs[i]) + len(m.connRIDs[i]) + len(m.seeingRIDs[i])) * ridLen
	}
	for _, rel := range m.relations() {
		size += rel.heap.StateLen()
	}
	b := make([]byte, 0, size)
	b = wire.AppendU8(b, nsmMetaVersion)
	b = wire.AppendU32(b, uint32(n))
	appendGroup := func(b []byte, rids []heap.RID) []byte {
		b = wire.AppendU32(b, uint32(len(rids)))
		for _, rid := range rids {
			b = appendRID(b, rid)
		}
		return b
	}
	for i := 0; i < n; i++ {
		b = appendRID(b, m.stationRID[i])
		b = wire.AppendU32(b, uint32(keys[i]))
		b = appendGroup(b, m.platRIDs[i])
		b = appendGroup(b, m.connRIDs[i])
		b = appendGroup(b, m.seeingRIDs[i])
	}
	for _, rel := range m.relations() {
		b = rel.heap.AppendState(b)
	}
	return b, nil
}

// RestoreMeta implements Model.
func (m *nsm) RestoreMeta(meta []byte) error {
	r := wire.NewReader(meta)
	if v := r.U8(); v != nsmMetaVersion && r.Err() == nil {
		return fmt.Errorf("nsm meta version %d", v)
	}
	n := r.Len(22) // RID + key + three group counts per object
	m.stationRID = make([]heap.RID, n)
	m.keyIdx = make(map[int32]int, n)
	m.platRIDs, m.connRIDs, m.seeingRIDs = make([][]heap.RID, n), make([][]heap.RID, n), make([][]heap.RID, n)
	var rids slab.Slab[heap.RID] // the decoded lists' own, local: no view cuts from it
	readGroup := func(total *int) []heap.RID {
		c := r.Len(6) // one RID per tuple
		*total += c
		group := rids.Cut(c, ridChunk)
		for i := range group {
			group[i] = readRID(r)
		}
		return group
	}
	for i := 0; i < n; i++ {
		m.stationRID[i] = readRID(r)
		if err := restoreKey(m.keyIdx, int32(r.U32()), i); err != nil {
			return err
		}
		m.platRIDs[i] = readGroup(&m.nPlats)
		m.connRIDs[i] = readGroup(&m.nConns)
		m.seeingRIDs[i] = readGroup(&m.nSeeings)
	}
	for _, rel := range m.relations() {
		if err := rel.heap.RestoreState(r); err != nil {
			return err
		}
	}
	return r.Close()
}

// --- dnsm (DASDBS-NSM) ------------------------------------------------------

// SnapshotMeta implements Model.
func (m *dnsm) SnapshotMeta() ([]byte, error) {
	n := len(m.refs)
	keys, err := invertKeys(m.keyIdx, n)
	if err != nil {
		return nil, err
	}
	size := 1 + 4 + n*(4*longobj.RefLen+4)
	for _, s := range m.stores() {
		size += s.StateLen()
	}
	b := make([]byte, 0, size)
	b = wire.AppendU8(b, dnsmMetaVersion)
	b = wire.AppendU32(b, uint32(n))
	for i := 0; i < n; i++ {
		for slot := 0; slot < 4; slot++ {
			b = longobj.AppendRef(b, m.refs[i][slot])
		}
		b = wire.AppendU32(b, uint32(keys[i]))
	}
	for _, s := range m.stores() {
		b = s.AppendState(b)
	}
	return b, nil
}

// RestoreMeta implements Model.
func (m *dnsm) RestoreMeta(meta []byte) error {
	r := wire.NewReader(meta)
	if v := r.U8(); v != dnsmMetaVersion && r.Err() == nil {
		return fmt.Errorf("dnsm meta version %d", v)
	}
	n := r.Len(40) // four 9-byte Refs + u32 key per object
	m.refs = make([][4]longobj.Ref, n)
	m.keyIdx = make(map[int32]int, n)
	for i := range m.refs {
		for slot := range m.refs[i] {
			m.refs[i][slot] = longobj.ReadRef(r)
		}
		if err := restoreKey(m.keyIdx, int32(r.U32()), i); err != nil {
			return err
		}
	}
	for _, s := range m.stores() {
		if err := s.RestoreState(r); err != nil {
			return err
		}
	}
	return r.Close()
}
