package disk

import "slices"

// lineage is a branch's record of its generations, kept so that a promote
// can reuse what earlier promotes superseded (doc.go, "Committed page
// images"). Every page image, table leaf and root a promote replaces is
// retired with the interval [born, died) of generations that can read it —
// born is the generation whose promote installed it, died the one whose
// promote replaced it — and moves to a free list once no live generation
// falls in that interval. Guarded by the branch's mutex.
type lineage struct {
	newest   uint64   // seq of the newest generation: the one promote recycles for
	live     []uint64 // seqs of the generations holding references, ascending
	born     []uint64 // per page: the generation that installed newest's image of it
	leafBorn []uint64 // per leaf index: the generation that made newest's leaf
	retired  []retired

	imgs   [][]byte // free page images
	leaves []*pageLeaf
	roots  []pageTable
	reused int64 // images handed out a second time (read by tests)
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
// last generation to read.
func (l *lineage) drain(seq uint64) {
	if i, ok := slices.BinarySearch(l.live, seq); ok {
		l.live = slices.Delete(l.live, i, i+1)
	}
	keep := l.retired[:0]
	for _, r := range l.retired {
		switch {
		case l.readable(r.born, r.died):
			keep = append(keep, r)
		case r.img != nil:
			poisonPage(r.img)
			l.imgs = append(l.imgs, r.img)
		case r.leaf != nil:
			*r.leaf = pageLeaf{}
			l.leaves = append(l.leaves, r.leaf)
		default:
			clear(r.root[:cap(r.root)])
			l.roots = append(l.roots, r.root)
		}
	}
	clear(l.retired[len(keep):])
	l.retired = keep
}

// image returns a page image to install, contents unspecified: a free one
// when held, else a fresh one.
func (l *lineage) image() []byte {
	if len(l.imgs) == 0 {
		return make([]byte, DefaultPageSize)
	}
	k := len(l.imgs) - 1
	img := l.imgs[k]
	l.imgs[k] = nil
	l.imgs = l.imgs[:k]
	l.reused++
	poisonPage(img)
	return img
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
