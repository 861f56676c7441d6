package store

import (
	"errors"
	"fmt"

	"complexobj/internal/disk"
	"complexobj/internal/heap"
	"complexobj/internal/longobj"
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

// ridLen is the encoded size of a heap.RID (u32 page + u16 slot).
const ridLen = 6

func appendRID(b []byte, rid heap.RID) []byte {
	b = wire.AppendU32(b, uint32(rid.Page))
	return wire.AppendU16(b, rid.Slot)
}

func readRID(r *wire.Reader) heap.RID {
	return heap.RID{Page: disk.PageID(r.U32()), Slot: r.U16()}
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
	if len(m.addr) != 0 {
		return fmt.Errorf("%w: %s already loaded", ErrRestore, m.Kind())
	}
	r := wire.NewReader(meta)
	if v := r.U8(); v != directMetaVersion && r.Err() == nil {
		return fmt.Errorf("%w: direct meta version %d", ErrRestore, v)
	}
	n := r.Len(13) // Ref (9 bytes) + u32 key per object
	addr := make([]longobj.Ref, n)
	keyIdx := make(map[int32]int, n)
	for i := range addr {
		addr[i] = longobj.ReadRef(r)
		keyIdx[int32(r.U32())] = i
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrRestore, err)
	}
	if err := m.objs.RestoreState(r); err != nil {
		return fmt.Errorf("%w: %v", ErrRestore, err)
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("%w: %v", ErrRestore, err)
	}
	m.addr, m.keyIdx = addr, keyIdx
	return nil
}

// --- nsm (NSM / NSM+index) --------------------------------------------------

// SnapshotMeta implements Model.
func (m *nsm) SnapshotMeta() ([]byte, error) {
	if m.countIndexIO {
		return nil, fmt.Errorf("store: %s: snapshots unsupported with counted index I/O (the ablation's B+-trees are rebuilt per run)", m.Kind())
	}
	n := len(m.stationRID)
	keys, err := invertKeys(m.keyIdx, n)
	if err != nil {
		return nil, err
	}
	heaps := []*heap.Heap{m.stations, m.plats, m.conns, m.seeings}
	size := 1 + 4 + n*(ridLen+4+3*4)
	for i := 0; i < n; i++ {
		size += (len(m.platRIDs[i]) + len(m.connRIDs[i]) + len(m.seeingRIDs[i])) * ridLen
	}
	for _, h := range heaps {
		size += h.StateLen()
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
	for _, h := range heaps {
		b = h.AppendState(b)
	}
	return b, nil
}

// RestoreMeta implements Model.
func (m *nsm) RestoreMeta(meta []byte) error {
	if len(m.stationRID) != 0 {
		return fmt.Errorf("%w: %s already loaded", ErrRestore, m.Kind())
	}
	if m.countIndexIO {
		return fmt.Errorf("%w: %s: snapshots unsupported with counted index I/O", ErrRestore, m.Kind())
	}
	r := wire.NewReader(meta)
	if v := r.U8(); v != nsmMetaVersion && r.Err() == nil {
		return fmt.Errorf("%w: nsm meta version %d", ErrRestore, v)
	}
	n := r.Len(22) // RID + key + three group counts per object
	stationRID := make([]heap.RID, n)
	keyIdx := make(map[int32]int, n)
	platRIDs := make([][]heap.RID, n)
	connRIDs := make([][]heap.RID, n)
	seeingRIDs := make([][]heap.RID, n)
	readGroup := func() []heap.RID {
		c := r.Len(6) // one RID per tuple
		if c == 0 {
			return nil
		}
		rids := make([]heap.RID, c)
		for i := range rids {
			rids[i] = readRID(r)
		}
		return rids
	}
	nPlats, nConns, nSeeings := 0, 0, 0
	for i := 0; i < n; i++ {
		stationRID[i] = readRID(r)
		keyIdx[int32(r.U32())] = i
		platRIDs[i] = readGroup()
		connRIDs[i] = readGroup()
		seeingRIDs[i] = readGroup()
		nPlats += len(platRIDs[i])
		nConns += len(connRIDs[i])
		nSeeings += len(seeingRIDs[i])
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrRestore, err)
	}
	for _, h := range []*heap.Heap{m.stations, m.plats, m.conns, m.seeings} {
		if err := h.RestoreState(r); err != nil {
			return fmt.Errorf("%w: %v", ErrRestore, err)
		}
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("%w: %v", ErrRestore, err)
	}
	m.stationRID, m.keyIdx = stationRID, keyIdx
	m.platRIDs, m.connRIDs, m.seeingRIDs = platRIDs, connRIDs, seeingRIDs
	m.nPlats, m.nConns, m.nSeeings = nPlats, nConns, nSeeings
	return nil
}

// --- dnsm (DASDBS-NSM) ------------------------------------------------------

// SnapshotMeta implements Model.
func (m *dnsm) SnapshotMeta() ([]byte, error) {
	n := len(m.refs)
	keys, err := invertKeys(m.keyIdx, n)
	if err != nil {
		return nil, err
	}
	stores := []*longobj.Store{m.stations, m.plats, m.conns, m.seeings}
	size := 1 + 4 + n*(4*longobj.RefLen+4)
	for _, s := range stores {
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
	for _, s := range stores {
		b = s.AppendState(b)
	}
	return b, nil
}

// RestoreMeta implements Model.
func (m *dnsm) RestoreMeta(meta []byte) error {
	if len(m.refs) != 0 {
		return fmt.Errorf("%w: %s already loaded", ErrRestore, m.Kind())
	}
	r := wire.NewReader(meta)
	if v := r.U8(); v != dnsmMetaVersion && r.Err() == nil {
		return fmt.Errorf("%w: dnsm meta version %d", ErrRestore, v)
	}
	n := r.Len(40) // four 9-byte Refs + u32 key per object
	refs := make([][4]longobj.Ref, n)
	keyIdx := make(map[int32]int, n)
	for i := 0; i < n; i++ {
		for slot := 0; slot < 4; slot++ {
			refs[i][slot] = longobj.ReadRef(r)
		}
		keyIdx[int32(r.U32())] = i
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrRestore, err)
	}
	for _, s := range []*longobj.Store{m.stations, m.plats, m.conns, m.seeings} {
		if err := s.RestoreState(r); err != nil {
			return fmt.Errorf("%w: %v", ErrRestore, err)
		}
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("%w: %v", ErrRestore, err)
	}
	m.refs, m.keyIdx = refs, keyIdx
	return nil
}
