package disk

import "slices"

// lineage is a branch's record of its generations, kept so that a promote
// can reuse what earlier promotes superseded (doc.go, "Committed page
// images"). Every page image, table leaf and root a promote replaces is
// retired with the interval [born, died) of generations that can read it —
// born is the generation whose promote installed it, died the one whose
// promote replaced it — and is freed once no live generation falls in that
// interval. The images come from the branch's own page pool and go back
// to it, off the Go heap; the pool is drained with the branch's last
// generation. Guarded by the branch's mutex.
type lineage struct {
	newest   uint64    // seq of the newest generation: the one promote recycles for
	top      pageTable // newest's table: the images no promote has retired
	live     []uint64  // seqs of the generations holding references, ascending
	born     []uint64  // per page: the generation that installed newest's image of it
	leafBorn []uint64  // per leaf index: the generation that made newest's leaf
	retired  []retired

	pages  *PagePool // the branch's committed images, free and in use
	leaves []*pageLeaf
	roots  []pageTable
}

// retired is one superseded image, leaf or root (exactly one is set) and
// the generations [born, died) that can read it.
type retired struct {
	born, died uint64
	img        []byte
	leaf       *pageLeaf
	root       pageTable
}

// readable reports whether a live generation falls in [born, died).
func (l *lineage) readable(born, died uint64) bool {
	i, _ := slices.BinarySearch(l.live, born)
	return i < len(l.live) && l.live[i] < died
}

// drain removes generation seq from the live set and frees what it was the
// last generation to read. No promote ever replaces what the newest
// generation's table holds, but once it drains none can — a promote needs
// the newest — so its images retire then as if one had replaced them all:
// those only it and other drained generations read go back to the pool,
// the rest when the older generations reading them drain. With the last
// generation every image is back, and the pool is drained; its error is
// a page of the branch's still out.
func (l *lineage) drain(seq uint64) error {
	if seq == l.newest {
		l.top.each(func(pg int, slot *[]byte) {
			l.retired = append(l.retired, retired{born: l.born[pg], died: seq + 1, img: *slot})
		})
		l.top = nil
	}
	if i, ok := slices.BinarySearch(l.live, seq); ok {
		l.live = slices.Delete(l.live, i, i+1)
	}
	keep := l.retired[:0]
	p := l.pages
	p.mu.Lock()
	for _, r := range l.retired {
		switch {
		case l.readable(r.born, r.died):
			keep = append(keep, r)
		case r.img != nil:
			p.put(r.img)
		case r.leaf != nil:
			*r.leaf = pageLeaf{}
			l.leaves = append(l.leaves, r.leaf)
		default:
			clear(r.root[:cap(r.root)])
			l.roots = append(l.roots, r.root)
		}
	}
	p.mu.Unlock()
	clear(l.retired[len(keep):])
	l.retired = keep
	if len(l.live) == 0 {
		return p.Drain()
	}
	return nil
}

// leaf returns an empty leaf.
func (l *lineage) leaf() *pageLeaf {
	if len(l.leaves) == 0 {
		return new(pageLeaf)
	}
	k := len(l.leaves) - 1
	leaf := l.leaves[k]
	l.leaves[k] = nil
	l.leaves = l.leaves[:k]
	return leaf
}

// root returns an empty table root of n leaves.
func (l *lineage) root(n int) pageTable {
	if k := len(l.roots) - 1; k >= 0 {
		r := l.roots[k]
		l.roots[k] = nil
		l.roots = l.roots[:k]
		if cap(r) >= n {
			return r[:n]
		}
	}
	return make(pageTable, n)
}

// cover grows the born records to numPages pages in leaves leaves.
func (l *lineage) cover(numPages, leaves int) {
	if n := numPages - len(l.born); n > 0 {
		l.born = append(l.born, make([]uint64, n)...)
	}
	if n := leaves - len(l.leafBorn); n > 0 {
		l.leafBorn = append(l.leafBorn, make([]uint64, n)...)
	}
}
