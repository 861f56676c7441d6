package disk

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"complexobj/internal/iostat"
)

// PageID addresses a page on the simulated device. Pages are allocated
// contiguously in runs, so the clustering assumptions of the paper's cost
// formulas (objects stored on consecutive pages) hold physically.
type PageID uint32

// InvalidPage is a sentinel PageID never returned by Allocate.
const InvalidPage = PageID(^uint32(0))

// DefaultPageSize is the DASDBS page size used throughout the paper: 2048
// bytes, of which 36 bytes are a system header, leaving 2012 effective bytes.
// It is the one page size of the system (doc.go, "Page geometry").
const DefaultPageSize = 2048

// SysHeaderSize is the per-page system header the paper subtracts from the
// raw page size ("the DASDBS (effective) page size of 2012 byte (2048 byte
// minus a header of 36 byte)"). The simulated device reserves it so that the
// usable payload matches the paper's k and p parameters.
const SysHeaderSize = 36

var (
	// ErrOutOfRange reports access to an unallocated page.
	ErrOutOfRange = errors.New("disk: page out of range")
	// ErrBadRun reports a zero- or negative-length run request.
	ErrBadRun = errors.New("disk: invalid run length")
	// ErrBadBuffer reports a transfer buffer whose size is not one page.
	ErrBadBuffer = errors.New("disk: buffer is not page-sized")
	// ErrDetached reports use of a device after Detach gave its arena away.
	ErrDetached = errors.New("disk: device arena was detached")
)

// Disk is an in-memory array of DefaultPageSize-byte pages with I/O
// accounting. Page p occupies arena bytes [p*DefaultPageSize,
// (p+1)*DefaultPageSize) of its backend.
//
// A Disk is not safe for concurrent use: it is part of an engine, and an
// engine has one owner at a time (package doc, "Ownership").
type Disk struct {
	numPages int
	backend  Backend
	stable   StablePager // zero-copy read capability (nil when unsupported)
	pages    pageList    // the engine's one free list of page buffers
	spare    pageTable   // a handed-on overlay table a device without an overlay carries (TakeScaffold)
	stats    iostat.Stats
	retries  int64 // backend read retries performed (diagnostics)
	detached bool  // Detach gave the arena away; the device is dead
}

// New creates a device over the default in-memory backend.
func New() *Disk {
	return NewWithBackend(NewMemBackend())
}

// NewWithBackend creates an empty device whose arena lives on the given
// backend. A non-empty backend (a COW view over a shared base) must go
// through Open instead.
func NewWithBackend(b Backend) *Disk {
	d := &Disk{backend: b}
	d.stable, _ = b.(StablePager)
	if c, ok := asCOW(b); ok { // one list for frames and overlay images
		c.list = &d.pages
	}
	return d
}

// Open adopts a backend that already holds page images (a COW view over
// a shared base): every complete page in the arena is considered
// allocated. The arena length must be an exact multiple of the page size.
func Open(b Backend) (*Disk, error) {
	d := NewWithBackend(b)
	n := b.Len()
	if n%DefaultPageSize != 0 {
		return nil, fmt.Errorf("disk: arena of %d bytes is not a multiple of page size %d", n, DefaultPageSize)
	}
	d.numPages = n / DefaultPageSize
	return d, nil
}

// SetPagePool names the pool the device's free list of page buffers — its
// buffer pool's frame memory, a COW backend's overlay images — asks once it
// is empty, and that the list and the engine's scaffold go to when the
// engine closes clean (TakeScaffold, ReleasePages). Call it before the
// device is used.
func (d *Disk) SetPagePool(pp *PagePool) { d.pages.pool = pp }

// NewPage returns a page-size buffer from the device's free list,
// contents unspecified.
func (d *Disk) NewPage() []byte { return d.pages.get() }

// FreePage gives the device's free list a page buffer nothing references
// any more; under `-tags poison` it reads 0xDB from then on.
func (d *Disk) FreePage(b []byte) { d.pages.put(b) }

// TakeScaffold starts the device from the scaffold a closed engine left in
// its page pool, if any: the free list takes its array, a COW overlay not
// yet written its emptied page table. It returns the buffer pool's part,
// nil for none, for the buffer pool opened over the device to reset. Call
// it before the device is used.
func (d *Disk) TakeScaffold() any {
	s, ok := d.pages.takeScaffold()
	if !ok {
		return nil
	}
	d.pages.free, d.spare = s.free, s.table
	if c, ok := asCOW(d.backend); ok && c.over == nil {
		c.over, d.spare = s.table, nil
	}
	return s.buf
}

// ReleasePages gives the page pool one scaffold: buf, the emptied
// scaffolding of the device's buffer pool, which package disk only
// stores; a COW overlay's page table, whose images the pool takes straight
// from the leaves; and the free list, pages and array. The buffer pool
// must be emptied first — a resident frame may borrow an overlay image —
// and the device is about to be closed. A device with no page pool drops
// it all.
func (d *Disk) ReleasePages(buf any) {
	table := d.spare
	if c, ok := asCOW(d.backend); ok {
		table, c.over, c.overlaid = c.over, nil, 0
	}
	d.pages.release(scaffold{buf: buf, table: table, free: d.pages.free})
	d.spare = nil
}

// Backend exposes the storage substrate (diagnostics and memory
// accounting; see COWStatsOf). Callers must not bypass the device for
// page I/O — the counters live here — and, like every other use of the
// device, inspect the backend only as the engine's owner.
func (d *Disk) Backend() Backend { return d.backend }

// PageSize returns the raw page size in bytes, DefaultPageSize.
func (d *Disk) PageSize() int { return DefaultPageSize }

// EffectivePageSize returns the usable payload bytes per page (raw size
// minus the 36-byte system header), the paper's S_page = 2012.
func (d *Disk) EffectivePageSize() int { return DefaultPageSize - SysHeaderSize }

// NumPages returns how many pages have been allocated so far.
func (d *Disk) NumPages() int { return d.numPages }

// Allocate reserves a contiguous run of n fresh zeroed pages and returns the
// first PageID. Allocation itself is free (space management is part of the
// data dictionary, whose I/Os the paper does not count).
func (d *Disk) Allocate(n int) (PageID, error) {
	if n <= 0 {
		return InvalidPage, ErrBadRun
	}
	if d.detached {
		return InvalidPage, ErrDetached
	}
	start := PageID(d.numPages)
	need := (d.numPages + n) * DefaultPageSize
	if err := d.backend.Grow(need); err != nil {
		return InvalidPage, err
	}
	d.numPages += n
	return start, nil
}

// Reserve asks the backend to make room for n pages beyond those
// allocated, so that the Allocate calls of a bulk load never move the
// arena: the loaders size their extension first and reserve it whole. It
// is a hint — only the loader arena acts on it (found under any wrappers;
// capacity is not I/O, so no fault schedule applies), and an
// under-estimate merely leaves the tail of the load to the backend's own
// growth policy. No counter moves and no page becomes allocated.
func (d *Disk) Reserve(n int) {
	if r, ok := under[reserver](d.backend); ok && n > 0 && !d.detached {
		r.Reserve((d.numPages + n) * DefaultPageSize)
	}
}

// Detach hands the device's loader arena — the images of all allocated
// pages, in place, not a copy — to a new base as its floor, and leaves the
// device dead: every later allocation or transfer fails with ErrDetached.
// This is how a loaded arena becomes the floor of a shared base at no
// cost. The base holds one reference, owned by the caller; its floor owns
// the arena and frees it at its last Release, and the arenas earlier
// growth retired are freed here. The arena is taken from under any
// wrappers, and only a loader arena can be detached. The caller must have
// flushed and emptied every buffer pool over the device first: resident
// frames borrow arena pages, and the new owner requires that nothing
// writes them again.
func (d *Disk) Detach() (*BaseArena, error) {
	if d.detached {
		return nil, ErrDetached
	}
	m, ok := under[*memBackend](d.backend)
	if !ok {
		return nil, errors.New("disk: detach: backend is not a loader arena")
	}
	if err := m.freeRetired(); err != nil {
		return nil, err
	}
	a := newArenaBase(m.arena, d.numPages*DefaultPageSize)
	m.arena = nil
	d.numPages, d.detached = 0, true
	return a, nil
}

// CopyBase copies the images of all allocated pages into a new base
// arena, allocated like a loader's and freed at the base's last Release.
// The base holds one reference, owned by the caller; the device is
// untouched and keeps working. Like DumpTo it moves no counter.
func (d *Disk) CopyBase() (*BaseArena, error) {
	if d.detached {
		return nil, ErrDetached
	}
	n := d.numPages * DefaultPageSize
	arena, err := allocArena(n)
	if err != nil {
		return nil, err
	}
	if err := d.readBackend(arena[:n], 0); err != nil {
		return nil, errors.Join(err, freeArena(arena))
	}
	return newArenaBase(arena, n), nil
}

// ReadRunShared — the device's only read path — reads len(views)
// contiguous pages starting at start with a single counted I/O call,
// without copying pages the backend can share: views[i] either aliases
// backend-stable page memory (borrowed[i] = true) or is a page-sized
// buffer obtained from getBuf and filled with a private copy
// (borrowed[i] = false). Borrowed slices are read-only and stay valid
// until the backend is reset or closed — the buffer pool must drop every
// borrow before either happens (the Discard-before-ResetView ordering of
// view recycling).
//
// Accounting is one read call, len(views) pages, whether pages are
// borrowed or copied, so zero-copy is invisible to every paper counter
// (the loader arena always shares an in-range page; copies happen over
// COW holes and fault-injected pages). On error, entries
// already holding getBuf buffers keep them (borrowed[i] = false) and all
// remaining entries are nil, so the caller can reclaim its buffers.
func (d *Disk) ReadRunShared(start PageID, views [][]byte, borrowed []bool, getBuf func() []byte) error {
	if len(views) == 0 {
		return ErrBadRun
	}
	if d.detached {
		return ErrDetached
	}
	if int(start)+len(views) > d.numPages {
		return fmt.Errorf("%w: read [%d,%d) of %d", ErrOutOfRange, start, int(start)+len(views), d.numPages)
	}
	fail := func(from int) {
		for i := from; i < len(views); i++ {
			views[i], borrowed[i] = nil, false
		}
	}
	for i := range views {
		off := (int(start) + i) * DefaultPageSize
		if d.stable != nil {
			if s, ok := d.stable.StablePage(off, DefaultPageSize); ok {
				views[i], borrowed[i] = s, true
				continue
			}
		}
		buf := getBuf()
		views[i], borrowed[i] = buf, false
		if len(buf) != DefaultPageSize {
			fail(i + 1)
			return fmt.Errorf("%w: page %d buffer has size %d, want %d", ErrBadBuffer, int(start)+i, len(buf), DefaultPageSize)
		}
		if err := d.readBackend(buf, off); err != nil {
			fail(i + 1)
			return err
		}
	}
	d.stats.ReadCalls++
	d.stats.PagesRead += int64(len(views))
	return nil
}

// WriteRun writes len(pages) contiguous pages starting at start with a
// single I/O call. Each buffer must be exactly one page long.
func (d *Disk) WriteRun(start PageID, pages [][]byte) error {
	if len(pages) == 0 {
		return ErrBadRun
	}
	if d.detached {
		return ErrDetached
	}
	if int(start)+len(pages) > d.numPages {
		return fmt.Errorf("%w: write [%d,%d) of %d", ErrOutOfRange, start, int(start)+len(pages), d.numPages)
	}
	for i, p := range pages {
		if len(p) != DefaultPageSize {
			return fmt.Errorf("disk: page %d has size %d, want %d", int(start)+i, len(p), DefaultPageSize)
		}
		if err := d.backend.WriteAt(p, (int(start)+i)*DefaultPageSize); err != nil {
			return err
		}
	}
	d.stats.WriteCalls++
	d.stats.PagesWritten += int64(len(pages))
	return nil
}

// Close releases the backend. For a COW view this releases
// only the private overlay — the shared base arena stays alive for every
// other engine reading through it. The device must not be used afterwards.
func (d *Disk) Close() error { return d.backend.Close() }

// ResetView restores a device layered over a copy-on-write backend to the
// pristine shared base: every overlay page is dropped, growth past the
// base is truncated (allocated page count back to the base's), and the
// device counters are untouched (the caller resets statistics as part of
// its own lifecycle). Any buffer pool over the device must have been
// emptied first — resident frames would otherwise alias pages that no
// longer exist. Returns false, changing nothing, when the backend is not
// copy-on-write; recycling is a COW-view affordance.
func (d *Disk) ResetView() bool {
	c, ok := asCOW(d.backend)
	if !ok {
		return false
	}
	c.reset()
	d.numPages = c.size / DefaultPageSize
	return true
}

// RebaseView is ResetView onto another generation: the overlay is dropped
// as above and the copy-on-write backend's base reference moves to base
// (retained here; the previous generation's reference is released), so
// the device adopts base's page count and reads its bytes from now on.
// The same emptied-pool precondition holds. This is the one way a view
// lands on a generation — a fresh view is an empty engine rebased onto
// the current one. Not copy-on-write is an error, changing nothing.
func (d *Disk) RebaseView(base *BaseArena) error {
	c, ok := asCOW(d.backend)
	if !ok {
		return errors.New("disk: rebase: backend is not copy-on-write")
	}
	if base.Len()%DefaultPageSize != 0 {
		return fmt.Errorf("disk: rebase: arena of %d bytes is not a multiple of page size %d", base.Len(), DefaultPageSize)
	}
	err := c.rebase(base)
	d.numPages = c.size / DefaultPageSize
	return err
}

// DumpTo streams the raw images of all allocated pages to w, without
// touching the I/O counters (snapshots are a dictionary-level operation,
// like allocation).
func (d *Disk) DumpTo(w io.Writer) error {
	if d.detached {
		return ErrDetached
	}
	n := d.numPages * DefaultPageSize
	// A backend that can share the whole range (a loader arena) is one
	// Write, no copy; otherwise the images are read out in chunks.
	if d.stable != nil {
		if all, ok := d.stable.StablePage(0, n); ok {
			_, err := w.Write(all)
			return err
		}
	}
	buf := make([]byte, 64*DefaultPageSize)
	for off := 0; off < n; {
		chunk := buf
		if n-off < len(chunk) {
			chunk = chunk[:n-off]
		}
		if err := d.readBackend(chunk, off); err != nil {
			return err
		}
		if _, err := w.Write(chunk); err != nil {
			return err
		}
		off += len(chunk)
	}
	return nil
}

// SameContent reports whether d and o hold byte-identical arenas: the
// same number of pages and the same page images. Like
// DumpTo it moves no counter.
func (d *Disk) SameContent(o *Disk) (bool, error) {
	if d.detached || o.detached {
		return false, ErrDetached
	}
	if d.numPages != o.numPages {
		return false, nil
	}
	n, chunk := d.numPages*DefaultPageSize, 64*DefaultPageSize
	var bufD, bufO []byte
	for off := 0; off < n; off += chunk {
		m := min(chunk, n-off)
		x, err := d.imagesAt(&bufD, off, m)
		if err != nil {
			return false, err
		}
		y, err := o.imagesAt(&bufO, off, m)
		if err != nil {
			return false, err
		}
		if !bytes.Equal(x, y) {
			return false, nil
		}
	}
	return true, nil
}

// imagesAt returns the n arena bytes at off: borrowed where the backend
// can share them, else read into *buf (allocated on first use).
func (d *Disk) imagesAt(buf *[]byte, off, n int) ([]byte, error) {
	if d.stable != nil {
		if s, ok := d.stable.StablePage(off, n); ok {
			return s, nil
		}
	}
	if len(*buf) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	return b, d.readBackend(b, off)
}

// Stats returns a snapshot of the device counters.
func (d *Disk) Stats() iostat.Stats { return d.stats }

// ResetStats zeroes the device counters without touching page contents.
func (d *Disk) ResetStats() { d.stats.Reset() }
