package disk

import (
	"io"
	"unsafe"
)

// OverlayPages visits every materialized overlay page of a copy-on-write
// backend in ascending page order, seeing through any stack of wrapping
// backends (fault injection). The images passed to fn are the live
// overlay pages — read-only for the caller, and invalid once the view
// resets or closes. Returns false, calling fn never, when b is not
// copy-on-write. This is the commit path's page collector: the overlay
// of a view is exactly its dirty page set relative to the shared base.
func OverlayPages(b Backend, fn func(pg int, img []byte)) bool {
	c, ok := asCOW(b)
	if !ok {
		return false
	}
	c.over.each(func(pg int, slot *[]byte) { fn(pg, *slot) })
	return true
}

// Promote folds one committed overlay into the generation, producing the
// next one: numPages pages of this generation's content (extended with
// zeros or truncated to the committed device size) with the overlay
// images applied on top. The cost is the dirty pages, not the arena: the
// next generation shares the floor and every table leaf no dirty page
// falls in, copies the root and the dirty pages' leaves, and installs a
// private copy of each image — a path-copied table, not a parent chain, so
// a page lookup costs the same after one promote as after a thousand.
// Pages at or past numPages are ignored — the committed size is
// authoritative; an image shorter than a page overrides the page's prefix.
// The result holds one reference owned by the caller; the receiver is only
// read, its references untouched. copied is the number of bytes the
// promote copied (root, leaves, images) — the in-memory write
// amplification of the commit.
//
// The images come from the branch's page pool, off the Go heap: memory
// earlier promotes superseded once no live generation can read it, else
// fresh pages of the pool's chunks. What this promote supersedes — the
// receiver's root, the leaves it copies, the images it replaces or drops
// — is retired with the generations that can read it.
// That needs the receiver to be the branch's newest generation; promoting
// an older one panics.
func (a *BaseArena) Promote(numPages int, pages map[int][]byte) (next *BaseArena, copied int64) {
	if a == nil {
		a = NewBaseArena(nil)
		defer a.Release()
	}
	br := a.br
	br.mu.Lock()
	defer br.mu.Unlock()
	l := br.lineageFor(a)
	size := numPages * DefaultPageSize
	next = &BaseArena{
		fl:       a.fl,
		br:       br,
		seq:      a.seq + 1,
		floorLen: min(a.floorLen, size),
		size:     size,
		over:     l.root((numPages + leafPages - 1) >> leafShift),
		held:     a.held,
	}
	next.refs.Store(1)
	a.fl.refs.Add(1)
	br.live++
	copy(next.over, a.over)
	copied = int64(len(next.over)) * int64(unsafe.Sizeof(next.over[0]))
	l.cover(numPages, len(next.over))
	if a.over != nil {
		l.retired = append(l.retired, retired{born: a.seq, died: next.seq, root: a.over})
	}
	// Leaves past the committed size go with the root that held them.
	for li := len(next.over); li < len(a.over); li++ {
		if a.over[li] != nil {
			l.retired = append(l.retired, retired{born: l.leafBorn[li], died: next.seq, leaf: a.over[li]})
		}
	}
	// slot returns page pg's entry in a leaf private to next, copying a
	// leaf still shared with the receiver and creating a missing one.
	slot := func(pg int) *[]byte {
		li := pg >> leafShift
		switch leaf := next.over[li]; {
		case leaf == nil:
			next.over[li] = l.leaf()
		case li < len(a.over) && leaf == a.over[li]:
			private := l.leaf()
			*private = *leaf
			next.over[li] = private
			l.retired = append(l.retired, retired{born: l.leafBorn[li], died: next.seq, leaf: leaf})
		default:
			return &leaf[pg&(leafPages-1)]
		}
		l.leafBorn[li] = next.seq
		copied += int64(unsafe.Sizeof(pageLeaf{}))
		return &next.over[li][pg&(leafPages-1)]
	}
	// drop retires the image a slot held before next replaced or dropped it.
	drop := func(pg int, img []byte) {
		if img != nil {
			l.retired = append(l.retired, retired{born: l.born[pg], died: next.seq, img: img})
		}
	}
	// A shrink drops the images past the committed size, those sharing the
	// last leaf with surviving pages included: regrown, they read as zero.
	for pg := numPages; pg*DefaultPageSize < a.size; pg++ {
		if img := a.over.page(pg); img != nil {
			next.held--
			drop(pg, img)
			if pg>>leafShift < len(next.over) {
				*slot(pg) = nil
			}
		}
	}
	for pg, src := range pages {
		if pg < 0 || pg >= numPages {
			continue
		}
		img := l.pages.Get()
		if len(src) < DefaultPageSize {
			m := copy(img, a.page(pg))
			clear(img[m:])
		}
		copy(img, src)
		at := slot(pg)
		if *at == nil {
			next.held++
		}
		drop(pg, *at)
		*at = img
		l.born[pg] = next.seq
		copied += DefaultPageSize
	}
	l.newest, l.top = next.seq, next.over
	l.live = append(l.live, next.seq)
	return next, copied
}

// WriteTo streams the generation's numPages*DefaultPageSize bytes to w — what a
// checkpoint persists — without flattening it in memory: every maximal
// run of pages still read from the floor goes out as one Write (a
// never-promoted base is a single Write of the floor), committed images
// one page each, and pages past the visible floor with no image as zeros.
func (a *BaseArena) WriteTo(w io.Writer) (int64, error) {
	if a == nil {
		return 0, nil
	}
	var written int64
	write := func(p []byte) error {
		n, err := w.Write(p)
		written += int64(n)
		return err
	}
	if a.over == nil {
		return written, write(a.fl.data)
	}
	var zeros []byte
	numPages := a.size / DefaultPageSize
	for pg := 0; pg < numPages; {
		if img := a.over.page(pg); img != nil {
			if err := write(img); err != nil {
				return written, err
			}
			pg++
			continue
		}
		end := pg + 1
		for end < numPages && a.over.page(end) == nil {
			end++
		}
		lo, hi := pg*DefaultPageSize, end*DefaultPageSize
		if lo < a.floorLen {
			if err := write(a.fl.data[lo:min(hi, a.floorLen)]); err != nil {
				return written, err
			}
			lo = min(hi, a.floorLen)
		}
		for lo < hi {
			if zeros == nil {
				zeros = make([]byte, DefaultPageSize)
			}
			n := min(hi-lo, len(zeros))
			if err := write(zeros[:n]); err != nil {
				return written, err
			}
			lo += n
		}
		pg = end
	}
	return written, nil
}
