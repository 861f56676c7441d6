package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"complexobj/internal/buffer"
	"complexobj/internal/disk"
)

// Node page layout (within the 2012-byte payload):
//
//	[0]    u8   flags (1 = leaf)
//	[1:3)  u16  number of entries
//	[3:7)  u32  rightmost child page (internal) / next leaf page (leaf)
//	entries:
//	  leaf:     u64 key + u64 value    (16 bytes)
//	  internal: u64 key + u32 child    (12 bytes; child holds keys <= key)
const (
	hdrSize       = 7
	leafEntry     = 16
	internalEntry = 12
	flagLeaf      = 1
)

// Errors returned by the tree.
var (
	ErrDuplicate = errors.New("btree: duplicate key")
	ErrNotFound  = errors.New("btree: key not found")
)

// Tree is a B+-tree rooted at a fixed page. The zero value is unusable;
// call New.
type Tree struct {
	dev  *disk.Disk
	pool *buffer.Pool
	root disk.PageID
	// capacity per node kind, derived from the page size.
	leafCap, internalCap int

	height  int
	pages   int
	entries int
}

// New allocates an empty tree.
func New(dev *disk.Disk, pool *buffer.Pool) (*Tree, error) {
	eff := dev.EffectivePageSize()
	t := &Tree{
		dev:         dev,
		pool:        pool,
		leafCap:     (eff - hdrSize) / leafEntry,
		internalCap: (eff - hdrSize) / internalEntry,
		height:      1,
		pages:       1,
	}
	pid, err := dev.Allocate(1)
	if err != nil {
		return nil, err
	}
	t.root = pid
	f, err := pool.Fix(pid)
	if err != nil {
		return nil, err
	}
	pool.MarkDirty(f)
	initNode(f.Data, true)
	pool.Unfix(pid, true)
	return t, nil
}

// Height returns the tree height in levels (1 = a single leaf).
func (t *Tree) Height() int { return t.height }

// Pages returns the number of node pages.
func (t *Tree) Pages() int { return t.pages }

// --- node accessors (operate on the raw page image) -------------------------

func payload(raw []byte) []byte { return raw[disk.SysHeaderSize:] }

func initNode(raw []byte, leaf bool) {
	p := payload(raw)
	for i := range p[:hdrSize] {
		p[i] = 0
	}
	if leaf {
		p[0] = flagLeaf
	}
	binary.BigEndian.PutUint32(p[3:7], uint32(disk.InvalidPage))
}

func isLeaf(raw []byte) bool { return payload(raw)[0]&flagLeaf != 0 }

func count(raw []byte) int { return int(binary.BigEndian.Uint16(payload(raw)[1:3])) }

func setCount(raw []byte, n int) { binary.BigEndian.PutUint16(payload(raw)[1:3], uint16(n)) }

func rightPtr(raw []byte) disk.PageID {
	return disk.PageID(binary.BigEndian.Uint32(payload(raw)[3:7]))
}

func setRightPtr(raw []byte, p disk.PageID) {
	binary.BigEndian.PutUint32(payload(raw)[3:7], uint32(p))
}

func leafKey(raw []byte, i int) uint64 {
	return binary.BigEndian.Uint64(payload(raw)[hdrSize+leafEntry*i:])
}

func leafVal(raw []byte, i int) uint64 {
	return binary.BigEndian.Uint64(payload(raw)[hdrSize+leafEntry*i+8:])
}

func setLeafEntry(raw []byte, i int, k, v uint64) {
	base := hdrSize + leafEntry*i
	binary.BigEndian.PutUint64(payload(raw)[base:], k)
	binary.BigEndian.PutUint64(payload(raw)[base+8:], v)
}

func internalKey(raw []byte, i int) uint64 {
	return binary.BigEndian.Uint64(payload(raw)[hdrSize+internalEntry*i:])
}

func internalChild(raw []byte, i int) disk.PageID {
	return disk.PageID(binary.BigEndian.Uint32(payload(raw)[hdrSize+internalEntry*i+8:]))
}

func setInternalEntry(raw []byte, i int, k uint64, child disk.PageID) {
	base := hdrSize + internalEntry*i
	binary.BigEndian.PutUint64(payload(raw)[base:], k)
	binary.BigEndian.PutUint32(payload(raw)[base+8:], uint32(child))
}

// shift moves entries [i, n) one slot right to make room at i.
func shiftEntries(raw []byte, i, n, entrySize int) {
	p := payload(raw)
	src := hdrSize + entrySize*i
	end := hdrSize + entrySize*n
	copy(p[src+entrySize:end+entrySize], p[src:end])
}

// lowerBound returns the first index whose key is >= k.
func lowerBound(raw []byte, k uint64, entrySize int, keyAt func([]byte, int) uint64) int {
	lo, hi := 0, count(raw)
	for lo < hi {
		mid := (lo + hi) / 2
		if keyAt(raw, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// --- operations --------------------------------------------------------------

// Get returns the value stored under key. Each node on the root-to-leaf
// path costs one buffer fix (and a disk read on a cache miss).
func (t *Tree) Get(key uint64) (uint64, error) {
	pid := t.root
	for {
		f, err := t.pool.Fix(pid)
		if err != nil {
			return 0, err
		}
		if isLeaf(f.Data) {
			i := lowerBound(f.Data, key, leafEntry, leafKey)
			var (
				val   uint64
				found bool
			)
			if i < count(f.Data) && leafKey(f.Data, i) == key {
				val, found = leafVal(f.Data, i), true
			}
			t.pool.Unfix(pid, false)
			if !found {
				return 0, fmt.Errorf("%w: %d", ErrNotFound, key)
			}
			return val, nil
		}
		next := t.descend(f.Data, key)
		t.pool.Unfix(pid, false)
		pid = next
	}
}

// descend picks the child to follow for key in an internal node.
func (t *Tree) descend(raw []byte, key uint64) disk.PageID {
	i := lowerBound(raw, key, internalEntry, internalKey)
	if i < count(raw) {
		return internalChild(raw, i)
	}
	return rightPtr(raw)
}

// Scan visits all entries with from <= key <= to in ascending key order;
// fn returning false stops the scan. Leaf pages are fixed one at a time
// following the next-leaf chain.
func (t *Tree) Scan(from, to uint64, fn func(k, v uint64) bool) error {
	if from > to {
		return nil
	}
	// Descend to the leaf containing from.
	pid := t.root
	for {
		f, err := t.pool.Fix(pid)
		if err != nil {
			return err
		}
		if isLeaf(f.Data) {
			t.pool.Unfix(pid, false)
			break
		}
		next := t.descend(f.Data, from)
		t.pool.Unfix(pid, false)
		pid = next
	}
	for pid != disk.InvalidPage {
		f, err := t.pool.Fix(pid)
		if err != nil {
			return err
		}
		n := count(f.Data)
		i := lowerBound(f.Data, from, leafEntry, leafKey)
		for ; i < n; i++ {
			k := leafKey(f.Data, i)
			if k > to {
				t.pool.Unfix(pid, false)
				return nil
			}
			if !fn(k, leafVal(f.Data, i)) {
				t.pool.Unfix(pid, false)
				return nil
			}
		}
		next := rightPtr(f.Data)
		t.pool.Unfix(pid, false)
		pid = next
	}
	return nil
}

// splitResult reports a child split to its parent: child (the original
// page) kept the lower half with sep as its largest key; right is the new
// page holding the upper half. The parent inserts (sep -> child) and
// redirects its old pointer to child onto right.
type splitResult struct {
	split bool
	sep   uint64
	child disk.PageID
	right disk.PageID
}

// Insert stores key -> value. Inserting an existing key fails with
// ErrDuplicate (compose unique keys for multi-maps; see Pack).
func (t *Tree) Insert(key, value uint64) error {
	res, err := t.insertAt(t.root, key, value)
	if err != nil {
		return err
	}
	if res.split {
		// Grow a new root in place: the root page ID must stay stable, so
		// the old root's content has already been copied out to new pages
		// by insertAt (root split path).
		return fmt.Errorf("btree: internal error: unhandled root split")
	}
	t.entries++
	return nil
}

// insertAt inserts into the subtree rooted at pid and handles splits of
// that node. Splitting the root is special-cased so the root page ID
// stays stable: both halves move to fresh pages and the root becomes an
// internal node over them.
func (t *Tree) insertAt(pid disk.PageID, key, value uint64) (splitResult, error) {
	f, err := t.pool.Fix(pid)
	if err != nil {
		return splitResult{}, err
	}
	if isLeaf(f.Data) {
		return t.insertLeaf(pid, f, key, value)
	}
	child := t.descend(f.Data, key)
	t.pool.Unfix(pid, false)
	res, err := t.insertAt(child, key, value)
	if err != nil {
		return splitResult{}, err
	}
	if !res.split {
		return splitResult{}, nil
	}
	// Install the new separator into this node: (sep -> child) slots in
	// before the old pointer to child, which is redirected to right.
	f, err = t.pool.Fix(pid)
	if err != nil {
		return splitResult{}, err
	}
	n := count(f.Data)
	i := lowerBound(f.Data, res.sep, internalEntry, internalKey)
	if n < t.internalCap {
		t.pool.MarkDirty(f) // promotes a borrowed frame before mutation
		shiftEntries(f.Data, i, n, internalEntry)
		setInternalEntry(f.Data, i, res.sep, res.child)
		setCount(f.Data, n+1)
		t.redirect(f.Data, i+1, res.child, res.right)
		t.pool.Unfix(pid, true)
		return splitResult{}, nil
	}
	out, err := t.splitInternal(pid, f, i, res.sep, res.child, res.right)
	if err != nil {
		return splitResult{}, err
	}
	return out, nil
}

// redirect rewires the first pointer at or after position from that
// references oldChild onto newChild (checking the rightmost pointer too).
func (t *Tree) redirect(raw []byte, from int, oldChild, newChild disk.PageID) {
	n := count(raw)
	for j := from; j < n; j++ {
		if internalChild(raw, j) == oldChild {
			setInternalEntry(raw, j, internalKey(raw, j), newChild)
			return
		}
	}
	if rightPtr(raw) == oldChild {
		setRightPtr(raw, newChild)
	}
}

func (t *Tree) insertLeaf(pid disk.PageID, f *buffer.Frame, key, value uint64) (splitResult, error) {
	n := count(f.Data)
	i := lowerBound(f.Data, key, leafEntry, leafKey)
	if i < n && leafKey(f.Data, i) == key {
		t.pool.Unfix(pid, false)
		return splitResult{}, fmt.Errorf("%w: %d", ErrDuplicate, key)
	}
	if n < t.leafCap {
		t.pool.MarkDirty(f) // promotes a borrowed frame before mutation
		shiftEntries(f.Data, i, n, leafEntry)
		setLeafEntry(f.Data, i, key, value)
		setCount(f.Data, n+1)
		t.pool.Unfix(pid, true)
		return splitResult{}, nil
	}
	return t.splitLeaf(pid, f, i, key, value)
}

// splitLeaf splits a full leaf and inserts (key, value) into the proper
// half. The original page keeps the lower half so the leaf chain stays
// valid; a new right sibling takes the upper half. For a root leaf both
// halves move to fresh pages (the root page ID stays stable).
func (t *Tree) splitLeaf(pid disk.PageID, f *buffer.Frame, i int, key, value uint64) (splitResult, error) {
	n := count(f.Data) // == leafCap
	// Gather all entries including the new one, in order.
	keys := make([]uint64, 0, n+1)
	vals := make([]uint64, 0, n+1)
	for j := 0; j < n; j++ {
		if j == i {
			keys = append(keys, key)
			vals = append(vals, value)
		}
		keys = append(keys, leafKey(f.Data, j))
		vals = append(vals, leafVal(f.Data, j))
	}
	if i == n {
		keys = append(keys, key)
		vals = append(vals, value)
	}
	mid := (n + 1) / 2

	if pid == t.root {
		// Root split: two fresh leaves, root becomes internal.
		leftPid, rightPid, err := t.allocatePair()
		if err != nil {
			t.pool.Unfix(pid, false)
			return splitResult{}, err
		}
		if err := t.fillLeafPair(leftPid, rightPid, keys, vals, mid); err != nil {
			t.pool.Unfix(pid, false)
			return splitResult{}, err
		}
		t.pool.MarkDirty(f)
		initNode(f.Data, false)
		setInternalEntry(f.Data, 0, keys[mid-1], leftPid)
		setCount(f.Data, 1)
		setRightPtr(f.Data, rightPid)
		t.pool.Unfix(pid, true)
		t.height++
		return splitResult{}, nil
	}

	// Non-root: new right sibling takes the upper half; pid keeps the
	// lower half and chains to the sibling, which inherits pid's old next
	// pointer.
	rightPid, err := t.allocateOne()
	if err != nil {
		t.pool.Unfix(pid, false)
		return splitResult{}, err
	}
	rf, err := t.pool.Fix(rightPid)
	if err != nil {
		t.pool.Unfix(pid, false)
		return splitResult{}, err
	}
	t.pool.MarkDirty(rf)
	initNode(rf.Data, true)
	for j := mid; j < len(keys); j++ {
		setLeafEntry(rf.Data, j-mid, keys[j], vals[j])
	}
	setCount(rf.Data, len(keys)-mid)
	setRightPtr(rf.Data, rightPtr(f.Data))
	t.pool.Unfix(rightPid, true)

	t.pool.MarkDirty(f)
	for j := 0; j < mid; j++ {
		setLeafEntry(f.Data, j, keys[j], vals[j])
	}
	setCount(f.Data, mid)
	setRightPtr(f.Data, rightPid)
	t.pool.Unfix(pid, true)
	return splitResult{split: true, sep: keys[mid-1], child: pid, right: rightPid}, nil
}

// splitInternal splits a full internal node while installing the child
// split (sep -> newChild, redirect to newRight) at position i. The
// original page keeps the lower half; a new page takes the upper half.
func (t *Tree) splitInternal(pid disk.PageID, f *buffer.Frame, i int, sep uint64, newChild, newRight disk.PageID) (splitResult, error) {
	n := count(f.Data) // == internalCap
	keys := make([]uint64, 0, n+1)
	kids := make([]disk.PageID, 0, n+2)
	for j := 0; j < n; j++ {
		if j == i {
			keys = append(keys, sep)
			kids = append(kids, newChild)
		}
		keys = append(keys, internalKey(f.Data, j))
		kids = append(kids, internalChild(f.Data, j))
	}
	if i == n {
		keys = append(keys, sep)
		kids = append(kids, newChild)
	}
	kids = append(kids, rightPtr(f.Data))
	// Redirect the old pointer to newChild (now covering only the lower
	// half) onto newRight; it is the first pointer after position i that
	// still references newChild.
	for j := i + 1; j < len(kids); j++ {
		if kids[j] == newChild {
			kids[j] = newRight
			break
		}
	}
	mid := (len(keys) + 1) / 2 // keys[mid-1] moves up

	if pid == t.root {
		leftPid, rightPid, err := t.allocatePair()
		if err != nil {
			t.pool.Unfix(pid, false)
			return splitResult{}, err
		}
		if err := t.fillInternalPair(leftPid, rightPid, keys, kids, mid); err != nil {
			t.pool.Unfix(pid, false)
			return splitResult{}, err
		}
		t.pool.MarkDirty(f)
		initNode(f.Data, false)
		setInternalEntry(f.Data, 0, keys[mid-1], leftPid)
		setCount(f.Data, 1)
		setRightPtr(f.Data, rightPid)
		t.pool.Unfix(pid, true)
		t.height++
		return splitResult{}, nil
	}

	rightPid, err := t.allocateOne()
	if err != nil {
		t.pool.Unfix(pid, false)
		return splitResult{}, err
	}
	rf, err := t.pool.Fix(rightPid)
	if err != nil {
		t.pool.Unfix(pid, false)
		return splitResult{}, err
	}
	t.pool.MarkDirty(rf)
	initNode(rf.Data, false)
	remain := keys[mid:]
	remainKids := kids[mid:]
	for j := range remain {
		setInternalEntry(rf.Data, j, remain[j], remainKids[j])
	}
	setCount(rf.Data, len(remain))
	setRightPtr(rf.Data, remainKids[len(remain)])
	t.pool.Unfix(rightPid, true)

	t.pool.MarkDirty(f)
	for j := 0; j < mid-1; j++ {
		setInternalEntry(f.Data, j, keys[j], kids[j])
	}
	setCount(f.Data, mid-1)
	setRightPtr(f.Data, kids[mid-1])
	t.pool.Unfix(pid, true)
	return splitResult{split: true, sep: keys[mid-1], child: pid, right: rightPid}, nil
}

func (t *Tree) allocateOne() (disk.PageID, error) {
	pid, err := t.dev.Allocate(1)
	if err != nil {
		return disk.InvalidPage, err
	}
	t.pages++
	return pid, nil
}

func (t *Tree) allocatePair() (disk.PageID, disk.PageID, error) {
	pid, err := t.dev.Allocate(2)
	if err != nil {
		return disk.InvalidPage, disk.InvalidPage, err
	}
	t.pages += 2
	return pid, pid + 1, nil
}

func (t *Tree) fillLeafPair(leftPid, rightPid disk.PageID, keys, vals []uint64, mid int) error {
	lf, err := t.pool.Fix(leftPid)
	if err != nil {
		return err
	}
	t.pool.MarkDirty(lf)
	initNode(lf.Data, true)
	for j := 0; j < mid; j++ {
		setLeafEntry(lf.Data, j, keys[j], vals[j])
	}
	setCount(lf.Data, mid)
	setRightPtr(lf.Data, rightPid)
	t.pool.Unfix(leftPid, true)

	rf, err := t.pool.Fix(rightPid)
	if err != nil {
		return err
	}
	t.pool.MarkDirty(rf)
	initNode(rf.Data, true)
	for j := mid; j < len(keys); j++ {
		setLeafEntry(rf.Data, j-mid, keys[j], vals[j])
	}
	setCount(rf.Data, len(keys)-mid)
	t.pool.Unfix(rightPid, true)
	return nil
}

func (t *Tree) fillInternalPair(leftPid, rightPid disk.PageID, keys []uint64, kids []disk.PageID, mid int) error {
	lf, err := t.pool.Fix(leftPid)
	if err != nil {
		return err
	}
	t.pool.MarkDirty(lf)
	initNode(lf.Data, false)
	for j := 0; j < mid-1; j++ {
		setInternalEntry(lf.Data, j, keys[j], kids[j])
	}
	setCount(lf.Data, mid-1)
	setRightPtr(lf.Data, kids[mid-1])
	t.pool.Unfix(leftPid, true)

	rf, err := t.pool.Fix(rightPid)
	if err != nil {
		return err
	}
	t.pool.MarkDirty(rf)
	initNode(rf.Data, false)
	remain := keys[mid:]
	remainKids := kids[mid:]
	for j := range remain {
		setInternalEntry(rf.Data, j, remain[j], remainKids[j])
	}
	setCount(rf.Data, len(remain))
	setRightPtr(rf.Data, remainKids[len(remain)])
	t.pool.Unfix(rightPid, true)
	return nil
}

// Pack builds a composite key from a group identifier and a sequence
// number, so multi-maps (one root key, many tuples) can use unique tree
// keys while Scan(PackRange(group)) retrieves the whole group in order.
func Pack(group uint32, seq uint32) uint64 { return uint64(group)<<32 | uint64(seq) }

// PackRange returns the key range covering every sequence number of a
// group.
func PackRange(group uint32) (from, to uint64) {
	return Pack(group, 0), Pack(group, ^uint32(0))
}
