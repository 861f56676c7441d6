package disk

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// pageTable is a sparse page overlay: the image that overrides page pg of
// whatever lies below, nil (or past the end) when the page is not
// overridden. Two levels — a root of leaves of leafPages pages each, a nil
// leaf overriding nothing — make a lookup two steps whatever the table has
// been through, and let a table differing in a few pages share every other
// leaf with the one it derives from. One shape serves both overlay levels
// — a view's private writes (cowBackend.over) and the committed pages of a
// base generation (BaseArena.over) — so a page resolves through view table
// → generation table → floor in a fixed number of steps.
type pageTable []*pageLeaf

// pageLeaf holds the images of leafPages consecutive pages: sixteen keeps a
// commit's leaf copies under a fifth of its images, the root at ½ B/page.
type pageLeaf [leafPages][]byte

const (
	leafShift = 4
	leafPages = 1 << leafShift
)

// page returns the overriding image of page pg, or nil.
func (t pageTable) page(pg int) []byte {
	if li := pg >> leafShift; li < len(t) && t[li] != nil {
		return t[li][pg&(leafPages-1)]
	}
	return nil
}

// each visits the slot of every overriding image in ascending page order.
func (t pageTable) each(fn func(pg int, slot *[]byte)) {
	for li, leaf := range t {
		if leaf == nil {
			continue
		}
		for i := range leaf {
			if leaf[i] != nil {
				fn(li<<leafShift|i, &leaf[i])
			}
		}
	}
}

// floor is the immutable storage at the bottom of every generation of one
// or more bases: a loader arena, a heap slice or a read-only file mapping.
// It counts every reference to any generation standing on it and releases
// the storage with the last one, and it counts the branches standing on it.
type floor struct {
	data     []byte
	refs     atomic.Int64
	branches atomic.Int64 // branches with a generation someone holds
	mapped   bool         // a file mapping
	unmap    func() error // frees a file mapping or a loader arena (nil for a heap slice)
}

// branch is one base's line of generations over a floor: its own
// generation numbers, and the lineage that owns the committed page images,
// table leaves and roots its promotes superseded and hands them back to
// later promotes under the one rule of doc.go, "Committed page images".
// Branches of one floor share the floor and nothing else.
type branch struct {
	mu   sync.Mutex
	lin  *lineage // nil until the first promote, and once the branch drained
	live int      // generations holding references; the branch drains with the last
}

// lineageFor returns the lineage a promote of generation a records into.
// The lineage is a line: only the newest generation is promoted, since
// only its promote can account for what it supersedes (store.SharedBase
// promotes under fromGen == gen). A promote of any other generation would
// fork the lineage; it panics instead, as retaining a drained generation
// does. Called with mu held.
func (b *branch) lineageFor(a *BaseArena) *lineage {
	if b.lin == nil {
		b.lin = &lineage{newest: a.seq, live: []uint64{a.seq}, pages: NewPagePool()}
	} else if b.lin.newest != a.seq {
		panic(fmt.Sprintf("disk: promote of generation %d, not its branch's newest %d", a.seq, b.lin.newest))
	}
	return b.lin
}

// drained records that generation seq lost its last reference and frees
// what only it could still read. With the branch's last generation every
// committed image is back in the branch's pool, which is drained — an
// error is an image still out, whose chunk stays mapped — the lists go,
// and the floor counts one branch fewer.
func (b *branch) drained(seq uint64, f *floor) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var err error
	if b.lin != nil {
		err = b.lin.drain(seq)
	}
	if b.live--; b.live == 0 {
		b.lin = nil
		f.branches.Add(-1)
	}
	return err
}

// BaseArena is one immutable generation of a shared page arena: the frozen
// state any number of COW backends read through. It is a floor — the
// storage the base was built over, shared by every generation derived from
// it and by every branch of it — plus a table of the pages its branch
// committed over the floor since. Promote derives the next generation by
// copying the table and installing the dirty images, so a commit costs its
// dirty pages, not the arena. A generation is never written while anyone
// holds a reference on it: every overlay layered on top observes the same
// bytes for its whole life, which is what lets the parallel experiment
// matrix and the server hand each worker a view of one loaded extension
// instead of a private copy. A nil *BaseArena behaves as an empty base.
//
// Each generation counts its own references next to the floor's count,
// which sums every generation's of every branch: construction hands the
// creator one reference, Promote hands the next generation's owner one,
// every COW backend opened over a generation takes another (released by
// its Close or rebase). The floor storage — loader arena, heap slice or
// file mapping — is released only when the floor's last reference goes,
// so no view can ever observe an unmapped arena; a generation whose own
// last reference goes is drained, and what only it could read is reused
// (doc.go, "Committed page images"). Retaining a drained generation is a
// bug.
type BaseArena struct {
	fl       *floor
	br       *branch
	seq      uint64       // the generation's place in its branch
	refs     atomic.Int64 // this generation's own references
	floorLen int          // floor bytes this generation reads through (a shrink hides the rest for good)
	size     int          // logical arena length in bytes
	over     pageTable    // committed pages over the floor; nil until the first promote
	held     int          // non-nil entries of over
}

// NewBaseArena freezes data into a shared base holding one reference,
// owned by the caller. The caller hands over ownership: the slice must
// not be mutated afterwards.
func NewBaseArena(data []byte) *BaseArena {
	a := &BaseArena{fl: &floor{data: data}, br: &branch{live: 1}, floorLen: len(data), size: len(data)}
	a.refs.Store(1)
	a.fl.refs.Store(1)
	a.fl.branches.Store(1)
	return a
}

// newArenaBase freezes the first n bytes of an arena allocArena returned
// into a base holding one reference, owned by the caller; the floor owns
// the whole arena and frees it at its last release.
func newArenaBase(arena []byte, n int) *BaseArena {
	a := NewBaseArena(arena[:n:n])
	if cap(arena) > 0 {
		a.fl.unmap = func() error { return freeArena(arena) }
	}
	return a
}

// Branch opens another base over a's floor: generation 0 of a new branch,
// with generation numbers, a page table and a lineage of its own, holding
// one reference owned by the caller. Only a generation with no committed
// pages branches, so two branches never share an image, leaf or root; a
// promoted generation is refused. a needs no reference of the caller's,
// but its floor must still be alive: once the floor's last reference has
// gone Branch fails too (ErrBranch either way), and the caller maps the
// storage afresh. A nil a branches into nil, an empty base.
func (a *BaseArena) Branch() (*BaseArena, error) {
	if a == nil {
		return nil, nil
	}
	if a.over != nil {
		return nil, fmt.Errorf("%w: generation %d has committed pages", ErrBranch, a.seq)
	}
	f := a.fl
	for {
		n := f.refs.Load()
		if n <= 0 {
			return nil, fmt.Errorf("%w: floor released", ErrBranch)
		}
		if f.refs.CompareAndSwap(n, n+1) {
			break
		}
	}
	f.branches.Add(1)
	b := &BaseArena{fl: f, br: &branch{live: 1}, floorLen: a.floorLen, size: a.size}
	b.refs.Store(1)
	return b, nil
}

// ErrBranch reports a Branch of a generation that has committed pages or
// whose floor is released.
var ErrBranch = errors.New("disk: cannot branch base")

// Branches returns the number of bases standing on the generation's
// floor: its branches that still have a generation someone holds.
func (a *BaseArena) Branches() int {
	if a == nil {
		return 0
	}
	return int(a.fl.branches.Load())
}

// Len returns the generation's logical arena length in bytes.
func (a *BaseArena) Len() int {
	if a == nil {
		return 0
	}
	return a.size
}

// Bytes exposes the frozen arena for inspection (checksums, dumps). On a
// never-promoted base this is the floor itself, zero-copy; on a promoted
// generation it flattens into a fresh slice — inspection only, the read
// and checkpoint paths never flatten (see WriteTo). Callers must treat
// the slice as read-only and must hold a reference (for a released
// mapped base the slice is gone).
func (a *BaseArena) Bytes() []byte {
	if a == nil {
		return nil
	}
	if a.over == nil {
		return a.fl.data
	}
	buf := bytes.NewBuffer(make([]byte, 0, a.size))
	a.WriteTo(buf) // a bytes.Buffer never fails a write
	return buf.Bytes()
}

// Mapped reports whether the floor is a read-only file mapping (pages
// faulted in from the snapshot file on demand) rather than a copy the
// process built (a loader arena or a heap slice).
func (a *BaseArena) Mapped() bool { return a != nil && a.fl.mapped }

// DeltaPages returns the number of committed page images the generation
// holds over its floor.
func (a *BaseArena) DeltaPages() int {
	if a == nil {
		return 0
	}
	return a.held
}

// Refs returns the floor's current reference count (diagnostics and
// tests): generations and views of every base on the floor count here.
func (a *BaseArena) Refs() int {
	if a == nil {
		return 0
	}
	return int(a.fl.refs.Load())
}

// Retain takes one additional reference on the generation (and so on its
// floor) and returns the arena (nil-safe, so call sites can thread a
// possibly-empty base without branching). The caller must already hold
// one: a drained generation's images may have been reused, and retaining
// it panics rather than read them.
func (a *BaseArena) Retain() *BaseArena {
	if a != nil {
		if a.refs.Add(1) == 1 {
			panic("disk: retain of a drained base generation")
		}
		a.fl.refs.Add(1)
	}
	return a
}

// Release drops one reference. When the generation's last reference goes
// it is drained: what only it could read becomes reusable, and with its
// branch's last generation the branch's lists go. When the floor's last
// reference goes the floor storage is released: a heap floor drops its
// slice, a loader arena goes back to the operating system, an mmap-backed
// floor unmaps the snapshot file region. Releasing more often than
// retained is a bug and reported as an error.
func (a *BaseArena) Release() error {
	if a == nil {
		return nil
	}
	f := a.fl
	var err error
	if a.refs.Add(-1) == 0 {
		err = a.br.drained(a.seq, f)
	}
	switch n := f.refs.Add(-1); {
	case n > 0:
		return err
	case n < 0:
		return fmt.Errorf("disk: base arena over-released (refs %d)", n)
	}
	f.data = nil
	if f.unmap != nil {
		unmap := f.unmap
		f.unmap = nil
		return errors.Join(err, unmap())
	}
	return err
}

// floor returns the floor bytes the generation reads through.
func (a *BaseArena) floor() []byte {
	if a == nil {
		return nil
	}
	return a.fl.data[:a.floorLen]
}

// committedPage resolves page pg of a generation given as its two parts —
// the committed page table and the visible floor: the committed image
// when the table overrides the page, else the floor's slice of it, short
// when the floor ends inside the page, nil past it. Bytes the result does
// not cover read as zero.
func committedPage(over pageTable, floor []byte, pg int) []byte {
	if img := over.page(pg); img != nil {
		return img
	}
	lo := pg * DefaultPageSize
	if lo >= len(floor) {
		return nil
	}
	hi := min(lo+DefaultPageSize, len(floor))
	return floor[lo:hi:hi]
}

// page returns the generation's bytes of page pg.
func (a *BaseArena) page(pg int) []byte {
	if a == nil {
		return nil
	}
	return committedPage(a.over, a.floor(), pg)
}

// cowBackend is a copy-on-write arena: reads fall through to the shared
// immutable base generation, the first write to a page materializes a
// private copy in the overlay. Growth past the base is free until written
// (fresh pages read as zero straight from nowhere), so an engine over a
// large shared base costs only the pages it actually dirties.
type cowBackend struct {
	base *BaseArena
	size int       // logical arena length
	over pageTable // private page images over the base generation

	// The base generation's two parts, cached by attach so the per-page
	// lookup touches this struct alone. Valid while base's reference is
	// held, i.e. until Close or the next attach.
	committed pageTable
	floor     []byte

	overlaid int       // number of materialized overlay pages
	list     *pageList // where images come from and go: its device's free list
	own      pageList  // the list of a backend with no device
}

// NewCOWBackend layers a private overlay over base (nil means an empty
// base), copying on write one page at a time. The arena starts at the
// base length, so a device opened over it adopts every base page. The
// backend takes one reference on the base, released by its Close — the
// base therefore cannot be released under a live view.
func NewCOWBackend(base *BaseArena) Backend {
	b := &cowBackend{}
	b.list = &b.own
	b.attach(base)
	return b
}

// attach takes a reference on base and makes it the generation the
// (empty) overlay reads through.
func (b *cowBackend) attach(base *BaseArena) {
	b.base = base.Retain()
	b.size = base.Len()
	b.committed, b.floor = nil, base.floor()
	if base != nil {
		b.committed = base.over
	}
}

func (b *cowBackend) Len() int { return b.size }

func (b *cowBackend) Grow(n int) error {
	if n > b.size {
		b.size = n
	}
	return nil
}

// page resolves page pg through the two overlay levels: the view's
// private image, else the base generation's (committed image or floor).
// Bytes the result does not cover read as zero.
func (b *cowBackend) page(pg int) []byte {
	if img := b.over.page(pg); img != nil {
		return img
	}
	return committedPage(b.committed, b.floor, pg)
}

func (b *cowBackend) ReadAt(p []byte, off int) error {
	if err := checkRange(off, len(p), b.size); err != nil {
		return err
	}
	for len(p) > 0 {
		pg, po := off/DefaultPageSize, off%DefaultPageSize
		n := DefaultPageSize - po
		if n > len(p) {
			n = len(p)
		}
		m := 0
		if img := b.page(pg); po < len(img) {
			m = copy(p[:n], img[po:])
		}
		clear(p[m:n]) // past the base (grown tail, short floor) reads as zero
		p = p[n:]
		off += n
	}
	return nil
}

func (b *cowBackend) WriteAt(p []byte, off int) error {
	if err := checkRange(off, len(p), b.size); err != nil {
		return err
	}
	for len(p) > 0 {
		pg, po := off/DefaultPageSize, off%DefaultPageSize
		n := DefaultPageSize - po
		if n > len(p) {
			n = len(p)
		}
		img := b.over.page(pg)
		if img == nil {
			img = b.list.get()
			if n < DefaultPageSize {
				// Partial-page write: materialize the underlying content
				// first so the untouched bytes of the page survive (and,
				// for a recycled image, no stale bytes either). A
				// full-page write (the device's normal unit) skips this.
				m := copy(img, committedPage(b.committed, b.floor, pg))
				clear(img[m:])
			}
			li := pg >> leafShift
			if li >= len(b.over) { // too short: one twice the length li needs
				grown := make(pageTable, (li+1)*2)
				copy(grown, b.over)
				b.over = grown
			}
			if b.over[li] == nil {
				b.over[li] = new(pageLeaf)
			}
			b.over[li][pg&(leafPages-1)] = img
			b.overlaid++
		}
		copy(img[po:po+n], p[:n])
		p = p[n:]
		off += n
	}
	return nil
}

// StablePage implements StablePager: a materialized page shares its
// overlay image, an unmaterialized one inside the base shares the base
// generation's bytes directly (a committed image or the floor) — the
// zero-copy read path the whole COW design exists for.
// Grown-but-unwritten tail pages (which read as zero) and ranges spanning
// a page boundary stay on ReadAt. Overlay images are recycled by
// reset(), so the stability contract's reset clause is load-bearing here:
// every borrower must be gone before the view resets (the pool's
// Discard-before-ResetView ordering).
func (b *cowBackend) StablePage(off, n int) ([]byte, bool) {
	if off < 0 || n <= 0 || off+n > b.size {
		return nil, false
	}
	pg, po := off/DefaultPageSize, off%DefaultPageSize
	if po+n > DefaultPageSize {
		return nil, false
	}
	// The three levels spelled out rather than through page(): this is
	// the device's per-page read path, and a floor page — the common case
	// — is addressed by its byte range directly, as it was when the base
	// was one flat slice.
	img := b.over.page(pg)
	if img == nil {
		img = b.committed.page(pg)
	}
	if img != nil {
		return img[po : po+n : po+n], true
	}
	if off+n <= len(b.floor) {
		return b.floor[off : off+n : off+n], true
	}
	return nil, false
}

// reset drops every overlay page and truncates growth past the base, so
// the backend reads as the pristine shared base again. The overlay index
// keeps its capacity and the page images move to the device's free list
// (view recycling re-dirties a similar working set, so the next request's
// writes materialize pages without allocating).
func (b *cowBackend) reset() {
	b.over.each(func(_ int, slot *[]byte) {
		b.list.put(*slot)
		*slot = nil
	})
	b.overlaid = 0
	b.size = b.base.Len()
}

// rebase resets the overlay and moves the backend onto another
// generation, swapping its base reference. The new reference is taken
// before the old one is dropped: generations of one base share a floor,
// which must not hit zero in between.
func (b *cowBackend) rebase(base *BaseArena) error {
	old := b.base
	b.attach(base)
	b.reset()
	return old.Release()
}

// Close releases the overlay and the backend's reference on the shared
// base. Other engines keep reading through the base; only when the last
// reference (views plus the owner handle) goes is the base storage —
// loader arena, heap slice or snapshot file mapping — actually released.
func (b *cowBackend) Close() error {
	base := b.base
	b.over = nil
	b.overlaid = 0
	b.base, b.committed, b.floor = nil, nil, nil
	b.size = 0
	return base.Release()
}

// COWStats describes the memory split of a COW backend.
type COWStats struct {
	// BaseBytes is the size of the shared immutable base arena.
	BaseBytes int
	// OverlayPages is the number of privately materialized pages.
	OverlayPages int
	// OverlayBytes is the private overlay memory (OverlayPages × page).
	OverlayBytes int
}

// COWStatsOf reports overlay usage when b is a COW backend, seeing
// through any stack of wrapping backends (fault injection).
func COWStatsOf(b Backend) (COWStats, bool) {
	c, ok := asCOW(b)
	if !ok {
		return COWStats{}, false
	}
	return COWStats{
		BaseBytes:    c.base.Len(),
		OverlayPages: c.overlaid,
		OverlayBytes: c.overlaid * DefaultPageSize,
	}, true
}
