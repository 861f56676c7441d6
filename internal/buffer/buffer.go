package buffer

import (
	"errors"
	"fmt"
	"slices"

	"complexobj/internal/disk"
	"complexobj/internal/slab"
)

// Policy selects the page replacement algorithm.
type Policy int

const (
	// LRU evicts the least recently used unpinned page (default).
	LRU Policy = iota
	// Clock evicts with the second-chance clock algorithm; provided as an
	// ablation to show the paper's findings are robust to the (unnamed)
	// DASDBS replacement policy.
	Clock
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case Clock:
		return "Clock"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

var (
	// ErrNoFrames reports that every frame is pinned and none can be evicted.
	ErrNoFrames = errors.New("buffer: all frames pinned")
	// ErrNotFixed reports an Unfix of a page that is not pinned.
	ErrNotFixed = errors.New("buffer: page not fixed")
	// ErrBorrowedWrite reports a dirty Unfix of a frame still borrowed
	// from backend memory — the caller modified a page without calling
	// MarkDirty first.
	ErrBorrowedWrite = errors.New("buffer: dirty unfix of borrowed frame (MarkDirty before writing)")
)

// Frame is a cached page. Data is the raw page image (including the 36-byte
// system header area); callers slice out the payload themselves. A Frame
// (and its Data) is only valid while the caller holds a pin on it: after
// Unfix the frame may be evicted and its memory recycled for another page,
// and after the pool's Release for another engine's.
//
// A frame loaded from a backend that supports zero-copy reads
// (disk.StablePager) starts out borrowed: Data aliases backend memory
// instead of a private pool buffer. Borrowed data is read-only — callers
// that intend to modify a page must call Pool.MarkDirty first, which
// promotes the frame to an owned copy and replaces Data (so the page
// must be re-sliced afterwards). Unfixing a still-borrowed frame as
// dirty is an error: it means something wrote through the borrow.
type Frame struct {
	ID       disk.PageID
	Data     []byte
	pins     int
	dirty    bool
	borrowed bool // Data aliases backend memory; read-only until promoted
	ref      bool // Clock reference bit

	prev, next   *Frame // LRU list links (most recent at head)
	dprev, dnext *Frame // intrusive dirty list links (insertion order)
}

// Pool is the buffer manager.
type Pool struct {
	dev      *disk.Disk
	capacity int
	policy   Policy

	index    []*Frame // resident frames keyed by PageID; nil = absent
	resident int
	head     *Frame // LRU head (most recently used)
	tail     *Frame // LRU tail (least recently used)
	clock    []*Frame
	hand     int

	dirtyHead *Frame // intrusive dirty list, insertion order
	dirtyTail *Frame
	dirtyLen  int

	freeFrames []*Frame         // recycled Frame structs of evicted frames
	frames     slab.Slab[Frame] // where a Frame comes from when none is free

	scratch      []*Frame      // victim collection for flush/burst (reused)
	views        [][]byte      // ReadRunShared result scratch (reused)
	viewBorrowed []bool        // ReadRunShared borrow flags scratch (reused)
	ioBufs       [][]byte      // WriteRun argument scratch (reused)
	ids          []disk.PageID // sorted-id scratch for FixRun/FlushPages (reused)
	run          []*Frame      // FixRun result scratch (reused)

	fixes   int64
	hits    int64
	borrows int64
}

// New creates a pool of capacity page frames backed by dev, starting from
// the scaffolding of a pool released over dev's page pool if it holds one.
func New(dev *disk.Disk, capacity int, policy Policy) *Pool {
	if capacity <= 0 {
		panic("buffer: non-positive capacity")
	}
	p := &Pool{
		dev:      dev,
		capacity: capacity,
		policy:   policy,
	}
	if old, ok := dev.TakeScaffold().(*Pool); ok {
		p.reuse(old)
	}
	return p
}

// reuse starts the pool from the scaffolding of old, a pool Release handed
// on through its device's page pool (which keeps it as an opaque value):
// the frame index, every Frame old had (zeroed by recycle), the rest of
// its frame slab and its clock ring's backing array. The index is taken as
// Release left it, still naming the frames that were resident, and is
// cleared (its length is the last device's page count, and nothing past it
// was ever set), so no frame of the earlier engine is visible; the frames
// are the free list.
func (p *Pool) reuse(old *Pool) {
	clear(old.index)
	p.index, p.freeFrames, p.frames, p.clock = old.index[:0], old.freeFrames, old.frames, old.clock
	old.index, old.freeFrames, old.frames, old.clock = nil, nil, slab.Slab[Frame]{}, nil
}

// Capacity returns the pool size in pages.
func (p *Pool) Capacity() int { return p.capacity }

// DirtyLen returns the number of resident frames holding unwritten
// modifications (view recycling uses it to decide whether a request
// mutated anything before Discard throws the evidence away).
func (p *Pool) DirtyLen() int { return p.dirtyLen }

// Fixes returns the total number of page fixes so far.
func (p *Pool) Fixes() int64 { return p.fixes }

// Hits returns the number of fixes served without a disk read.
func (p *Pool) Hits() int64 { return p.hits }

// Borrows returns how many page loads were satisfied zero-copy (frame
// data borrowed from backend memory instead of copied into pool
// buffers). Diagnostics only — no paper counter depends on it.
func (p *Pool) Borrows() int64 { return p.borrows }

// ResetStats zeroes the fix/hit counters (disk counters are reset on the
// device itself).
func (p *Pool) ResetStats() { p.fixes, p.hits = 0, 0 }

// frameAt returns the resident frame of id, or nil.
func (p *Pool) frameAt(id disk.PageID) *Frame {
	if int(id) < len(p.index) {
		return p.index[id]
	}
	return nil
}

// install registers f as the resident frame of f.ID, growing the dense
// index as the device grows.
func (p *Pool) install(f *Frame) {
	if int(f.ID) >= len(p.index) {
		p.growIndex(int(f.ID) + 1)
	}
	p.index[f.ID] = f
	p.resident++
	p.insert(f)
}

// growIndex makes the index cover n pages, and every page the device has:
// a view's index is sized once, to its base, and one that must grow past
// its capacity doubles it. Slots past the length are nil whether the array
// is new or reused, so lengthening within the capacity is a reslice.
func (p *Pool) growIndex(n int) {
	n = max(n, p.dev.NumPages())
	if n > cap(p.index) {
		grown := make([]*Frame, n, max(n, 2*cap(p.index)))
		copy(grown, p.index)
		p.index = grown
	}
	p.index = p.index[:n]
}

// Fix pins the page in the pool, reading it from disk if absent, and
// returns its frame. Every call counts as one buffer fix. The caller must
// Unfix the page when done.
//
// The hit path — the hottest operation of the whole simulation — performs
// no allocation.
func (p *Pool) Fix(id disk.PageID) (*Frame, error) {
	if f := p.frameAt(id); f != nil {
		p.fixes++
		p.hits++
		f.pins++
		p.touch(f)
		return f, nil
	}
	if err := p.loadRun(id, 1); err != nil {
		return nil, err
	}
	f := p.frameAt(id)
	if f == nil {
		return nil, fmt.Errorf("buffer: page %d vanished after load", id)
	}
	p.fixes++
	f.pins++
	p.touch(f)
	return f, nil
}

// FixRun pins a set of pages, fetching all absent pages from disk using one
// I/O call per contiguous run of missing page IDs. This models DASDBS
// fetching the data pages of a clustered object together. Frames are
// returned in input order and each counts as one fix. The returned slice
// is pool scratch, valid until the next FixRun on this pool (the
// Ownership rule: one engine, one goroutine at a time).
func (p *Pool) FixRun(ids []disk.PageID) ([]*Frame, error) {
	if poison { // whoever kept the previous result reads nil frames
		clear(p.run[:cap(p.run)])
		p.run = nil
	}
	if cap(p.run) < len(ids) {
		p.run = make([]*Frame, len(ids))
	}
	out := p.run[:len(ids)]
	clear(out) // nil marks "not fixed yet" below
	missing := p.ids[:0]
	for i, id := range ids {
		if f := p.frameAt(id); f != nil {
			p.fixes++
			p.hits++
			f.pins++
			p.touch(f)
			out[i] = f
		} else {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		// Sort and deduplicate (the same absent page may be requested twice
		// in one run), then fetch each contiguous run with one I/O call.
		slices.Sort(missing)
		uniq := missing[:0]
		for i, id := range missing {
			if i == 0 || id != missing[i-1] {
				uniq = append(uniq, id)
			}
		}
		for start := 0; start < len(uniq); {
			end := start + 1
			for end < len(uniq) && uniq[end] == uniq[end-1]+1 {
				end++
			}
			if err := p.loadRun(uniq[start], end-start); err != nil {
				p.ids = missing[:0]
				unpinAll(out)
				return nil, err
			}
			start = end
		}
		p.ids = missing[:0]
		for i, id := range ids {
			if out[i] != nil {
				continue
			}
			f := p.frameAt(id)
			if f == nil {
				unpinAll(out)
				return nil, fmt.Errorf("buffer: page %d vanished after load", id)
			}
			p.fixes++
			f.pins++
			p.touch(f)
			out[i] = f
		}
	} else {
		p.ids = missing[:0]
	}
	return out, nil
}

// unpinAll releases the pins taken on the frames collected so far, so a
// FixRun that fails halfway does not leak pins on the pages it had already
// fixed (the caller only sees the error and cannot unfix them itself). The
// fix/hit counters are left as recorded: those fixes did happen.
func unpinAll(out []*Frame) {
	for _, f := range out {
		if f != nil {
			f.pins--
		}
	}
}

// frameSlab is how many Frames the pool allocates at once, capped by its
// capacity: a pool never holds more frames than it has slots.
const frameSlab = 64

// getFrame returns a zeroed Frame struct, recycled if possible and cut
// from the pool's current slab of frames otherwise.
func (p *Pool) getFrame() *Frame {
	if n := len(p.freeFrames); n > 0 {
		f := p.freeFrames[n-1]
		p.freeFrames[n-1] = nil
		p.freeFrames = p.freeFrames[:n-1]
		return f
	}
	return &p.frames.Cut(1, min(frameSlab, p.capacity))[0]
}

// loadRun reads a contiguous run of n absent pages starting at start with
// one disk call and installs them unpinned (the caller pins them right
// after). Pages the backend can share arrive borrowed (Frame.Data aliases
// backend memory, no copy); the rest are filled into buffers of the
// device's free list, so in steady state this allocates nothing either way.
func (p *Pool) loadRun(start disk.PageID, n int) error {
	// Make room first so that eviction never kicks out a page of this run.
	for p.resident+n > p.capacity {
		if err := p.evictOne(); err != nil {
			return err
		}
	}
	views, borrowed := p.views, p.viewBorrowed
	for len(views) < n {
		views = append(views, nil)
		borrowed = append(borrowed, false)
	}
	views, borrowed = views[:n], borrowed[:n]
	if err := p.dev.ReadRunShared(start, views, borrowed, p.dev.NewPage); err != nil {
		// Reclaim the private buffers the device had already handed out;
		// borrowed entries are the backend's memory and just get dropped.
		for i := range views {
			if views[i] != nil && !borrowed[i] {
				p.dev.FreePage(views[i])
			}
			views[i] = nil
		}
		p.views, p.viewBorrowed = views[:0], borrowed[:0]
		return err
	}
	for i := 0; i < n; i++ {
		f := p.getFrame()
		f.ID = start + disk.PageID(i)
		f.Data = views[i]
		f.borrowed = borrowed[i]
		if borrowed[i] {
			p.borrows++
		}
		views[i] = nil
		p.install(f)
	}
	p.views, p.viewBorrowed = views[:0], borrowed[:0]
	return nil
}

// Unfix releases one pin on the page; dirty marks the page modified so it
// is written back before leaving the pool. A dirty Unfix of a frame that
// is still borrowed is an error: the writer skipped MarkDirty, so its
// modifications went through (or raced with) shared backend memory. The
// frame is unpinned either way.
func (p *Pool) Unfix(id disk.PageID, dirty bool) error {
	f := p.frameAt(id)
	if f == nil || f.pins == 0 {
		return fmt.Errorf("%w: page %d", ErrNotFixed, id)
	}
	f.pins--
	if dirty {
		if f.borrowed {
			return fmt.Errorf("%w: page %d", ErrBorrowedWrite, id)
		}
		p.markDirty(f)
	}
	return nil
}

// MarkDirty declares the intent to modify the pinned frame: it promotes a
// borrowed frame to an owned private copy and puts the frame on the dirty
// list. Callers must invoke it BEFORE writing and must re-derive any page
// wrapper from f.Data afterwards — promotion replaces the slice. Calling
// it on an already-owned frame just marks it dirty (idempotent), so write
// paths need no borrowed/owned branching of their own.
func (p *Pool) MarkDirty(f *Frame) {
	p.promote(f)
	p.markDirty(f)
}

// promote turns a borrowed frame into an owned one by copying the page
// into a buffer of the device's free list. No-op for owned frames.
func (p *Pool) promote(f *Frame) {
	if !f.borrowed {
		return
	}
	buf := p.dev.NewPage()
	copy(buf, f.Data)
	f.Data = buf
	f.borrowed = false
}

// --- dirty list -------------------------------------------------------------

// markDirty puts f on the dirty list (idempotent).
func (p *Pool) markDirty(f *Frame) {
	if f.dirty {
		return
	}
	f.dirty = true
	f.dprev = p.dirtyTail
	f.dnext = nil
	if p.dirtyTail != nil {
		p.dirtyTail.dnext = f
	} else {
		p.dirtyHead = f
	}
	p.dirtyTail = f
	p.dirtyLen++
}

// clearDirty removes f from the dirty list (idempotent).
func (p *Pool) clearDirty(f *Frame) {
	if !f.dirty {
		return
	}
	f.dirty = false
	if f.dprev != nil {
		f.dprev.dnext = f.dnext
	} else {
		p.dirtyHead = f.dnext
	}
	if f.dnext != nil {
		f.dnext.dprev = f.dprev
	} else {
		p.dirtyTail = f.dprev
	}
	f.dprev, f.dnext = nil, nil
	p.dirtyLen--
}

// evictOne drops one unpinned victim frame and recycles its memory. A dirty
// victim triggers a write burst: every unpinned dirty frame is written back
// in contiguous batches before the victim is dropped. This mirrors the
// DASDBS behaviour the paper observes in §5.2 — pages are written "only
// then if either the query execution has been finished (database
// disconnect) or the page buffer overflows", and overflow writes carry many
// pages per I/O call ("on the average respectively 30 and 20 pages per
// write for query 3").
func (p *Pool) evictOne() error {
	f := p.victim()
	if f == nil {
		return ErrNoFrames
	}
	if f.dirty {
		if err := p.writeBurst(); err != nil {
			return err
		}
	}
	p.remove(f)
	p.index[f.ID] = nil
	p.resident--
	p.recycle(f)
	return nil
}

// recycle returns an evicted frame's memory to the free lists: its Frame
// to the pool's, its Data to the device's. Borrowed Data is backend
// memory, not the pool's to reuse — it is simply let go.
func (p *Pool) recycle(f *Frame) {
	if !f.borrowed {
		p.dev.FreePage(f.Data)
	}
	*f = Frame{}
	p.freeFrames = append(p.freeFrames, f)
}

// writeVictims writes the frames in p.scratch back to disk, batching
// contiguous page IDs into single calls, and clears their dirty bits.
// Frames stay resident. The scratch list is consumed.
func (p *Pool) writeVictims() error {
	victims := p.scratch
	slices.SortFunc(victims, func(a, b *Frame) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		default:
			return 0
		}
	})
	var err error
	for start := 0; start < len(victims) && err == nil; {
		end := start + 1
		for end < len(victims) && victims[end].ID == victims[end-1].ID+1 {
			end++
		}
		pages := p.ioBufs[:0]
		for _, f := range victims[start:end] {
			pages = append(pages, f.Data)
		}
		p.ioBufs = pages[:0]
		if err = p.dev.WriteRun(victims[start].ID, pages); err != nil {
			break
		}
		for _, f := range victims[start:end] {
			p.clearDirty(f)
		}
		start = end
	}
	for i := range victims {
		victims[i] = nil
	}
	p.scratch = victims[:0]
	return err
}

// writeBurst writes back all unpinned dirty frames (overflow behaviour).
func (p *Pool) writeBurst() error {
	victims := p.scratch[:0]
	for f := p.dirtyHead; f != nil; f = f.dnext {
		if f.pins == 0 {
			victims = append(victims, f)
		}
	}
	p.scratch = victims
	return p.writeVictims()
}

// FlushAll writes every dirty page back to disk, batching contiguous page
// IDs into single write calls (DASDBS behaviour at query end / disconnect),
// and clears their dirty bits, pinned pages included. Resident pages stay
// cached.
func (p *Pool) FlushAll() error {
	victims := p.scratch[:0]
	for f := p.dirtyHead; f != nil; f = f.dnext {
		victims = append(victims, f)
	}
	p.scratch = victims
	return p.writeVictims()
}

// FlushPages writes back the given pages (dirty or not) immediately,
// grouping contiguous runs into single calls. It models the DASDBS
// "change attribute" page-pool behaviour of §5.3, where each update
// operation allocates a page pool of which all pages are written.
// Non-resident pages are skipped.
func (p *Pool) FlushPages(ids []disk.PageID) error {
	sorted := append(p.ids[:0], ids...)
	slices.Sort(sorted)
	victims := p.scratch[:0]
	for i, id := range sorted {
		if i > 0 && id == sorted[i-1] {
			continue
		}
		if f := p.frameAt(id); f != nil {
			victims = append(victims, f)
		}
	}
	p.ids = sorted[:0]
	p.scratch = victims
	return p.writeVictims()
}

// Drop discards the resident frames of the given pages without writing
// them back, recycling their memory. It is the cache-coherence hook for
// page recycling: when the free-space map hands a dead page to a new
// object, any stale frame (clean or dirty — its content belongs to the
// relocated object's old incarnation) must leave the pool before the new
// image is written to the device directly. Dropping performs no I/O and
// touches no counter. Non-resident pages are ignored; dropping a pinned
// page is an error.
func (p *Pool) Drop(ids []disk.PageID) error {
	for _, id := range ids {
		f := p.frameAt(id)
		if f == nil {
			continue
		}
		if f.pins > 0 {
			return fmt.Errorf("buffer: drop of pinned page %d", id)
		}
		p.remove(f)
		p.index[f.ID] = nil
		p.resident--
		p.recycle(f)
	}
	return nil
}

// Reset flushes all dirty pages and then empties the pool, so the next
// queries start with a cold cache. Returns an error if a page is still
// pinned.
func (p *Pool) Reset() error {
	return p.empty(true)
}

// Discard empties the pool without writing dirty pages back. It exists
// for view recycling: when the device underneath is about to be reset to
// a pristine shared base, the dirty frames describe pages that are about
// to vanish, and flushing them would only materialize overlay copies that
// are dropped a moment later. Returns an error if a page is still pinned.
// Frame structs and page buffers go to the free lists, so a recycled
// view's next request allocates nothing on the buffer hot path.
func (p *Pool) Discard() error {
	return p.empty(false)
}

// Release is Discard for a pool about to be closed: its frames' buffers
// go to the device's free list, and then — no frame borrows an overlay
// image now — the device gives its page pool the list, its overlay and
// the pool itself, the scaffolding the next pool opened over that page
// pool starts from (disk.Disk.ReleasePages, reuse). The caller has
// flushed; whatever is still dirty is dropped. The pool is empty
// afterwards and must not be used again.
func (p *Pool) Release() error {
	if err := p.unpinned(); err != nil {
		return err
	}
	p.eachResident(p.recycle) // the index keeps naming them: reuse clears it
	p.forget()
	p.dev.ReleasePages(p)
	return nil
}

// unpinned fails when a frame is pinned: a pool is emptied only whole.
func (p *Pool) unpinned() error {
	var pinned *Frame
	p.eachResident(func(f *Frame) {
		if f.pins > 0 && pinned == nil {
			pinned = f
		}
	})
	if pinned != nil {
		return fmt.Errorf("buffer: reset with pinned page %d", pinned.ID)
	}
	return nil
}

// empty drops every resident frame, optionally flushing dirty ones first.
func (p *Pool) empty(flush bool) error {
	if err := p.unpinned(); err != nil {
		return err
	}
	if flush {
		if err := p.FlushAll(); err != nil {
			return err
		}
	}
	p.eachResident(func(f *Frame) {
		p.index[f.ID] = nil
		p.recycle(f)
	})
	p.forget()
	return nil
}

// forget empties the replacement and dirty structures once every resident
// frame has been recycled.
func (p *Pool) forget() {
	p.resident = 0
	p.head, p.tail = nil, nil
	p.clock = p.clock[:0]
	p.hand = 0
	p.dirtyHead, p.dirtyTail, p.dirtyLen = nil, nil, 0
}

// eachResident visits every resident frame via the replacement-policy
// structure (all resident frames are on the LRU list or the clock ring).
// fn may recycle the frame it is handed: its link is read first.
func (p *Pool) eachResident(fn func(*Frame)) {
	switch p.policy {
	case Clock:
		for _, f := range p.clock {
			fn(f)
		}
	default:
		for f := p.head; f != nil; {
			next := f.next
			fn(f)
			f = next
		}
	}
}

// --- replacement policies ---------------------------------------------------

func (p *Pool) insert(f *Frame) {
	switch p.policy {
	case Clock:
		f.ref = true
		p.clock = append(p.clock, f)
	default:
		p.pushFront(f)
	}
}

func (p *Pool) touch(f *Frame) {
	switch p.policy {
	case Clock:
		f.ref = true
	default:
		p.unlink(f)
		p.pushFront(f)
	}
}

func (p *Pool) remove(f *Frame) {
	p.clearDirty(f)
	switch p.policy {
	case Clock:
		for i, c := range p.clock {
			if c == f {
				p.clock = append(p.clock[:i], p.clock[i+1:]...)
				if p.hand > i {
					p.hand--
				}
				if len(p.clock) > 0 {
					p.hand %= len(p.clock)
				} else {
					p.hand = 0
				}
				return
			}
		}
	default:
		p.unlink(f)
	}
}

func (p *Pool) victim() *Frame {
	switch p.policy {
	case Clock:
		if len(p.clock) == 0 {
			return nil
		}
		// Two sweeps suffice: the first clears reference bits, the second
		// must find an unpinned frame if one exists.
		for sweep := 0; sweep < 2*len(p.clock); sweep++ {
			f := p.clock[p.hand]
			p.hand = (p.hand + 1) % len(p.clock)
			if f.pins > 0 {
				continue
			}
			if f.ref {
				f.ref = false
				continue
			}
			return f
		}
		return nil
	default:
		for f := p.tail; f != nil; f = f.prev {
			if f.pins == 0 {
				return f
			}
		}
		return nil
	}
}

func (p *Pool) pushFront(f *Frame) {
	f.prev = nil
	f.next = p.head
	if p.head != nil {
		p.head.prev = f
	}
	p.head = f
	if p.tail == nil {
		p.tail = f
	}
}

func (p *Pool) unlink(f *Frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else if p.head == f {
		p.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else if p.tail == f {
		p.tail = f.prev
	}
	f.prev, f.next = nil, nil
}
