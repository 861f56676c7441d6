package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"complexobj/cobench"
	"complexobj/internal/disk"
)

// ErrStaleBase reports a Promote built against a generation the base has
// already moved past: another commit folded first. The caller's overlay
// is untouched; it can re-run against a fresh view of the new generation.
var ErrStaleBase = errors.New("store: shared base generation moved")

// ErrSharedBase reports a Promote on a base more than one owner holds
// (kinds of one physical layout opened together share it): a commit by
// one kind would change what every other owner serves, so such a base is
// read-only.
var ErrSharedBase = errors.New("store: base shared by more than one owner")

// SharedBase is the frozen, immutable state of one loaded storage model:
// the raw device arena plus the model's directory metadata. Any number of
// engines can open copy-on-write views of one base concurrently — each
// view reads the shared arena and keeps its writes in a private
// page-granular overlay — so the parallel experiment matrix pays for one
// loaded extension per model kind instead of one per worker. A restored
// view starts with a cold cache and zeroed counters and measures
// bit-identically to a freshly loaded model (the same guarantee the .codb
// snapshot round-trip pins).
//
// A base advances through generations: the arena of any one generation
// stays immutable forever, but Promote can fold a committed overlay into
// the next generation — the same floor, a copied page table, the dirty
// images — and atomically swap it in as generation n+1. Views capture
// the generation they landed on and keep reading it — their COW backends
// hold their own references on it, and a superseded generation's page
// images are reused by a later promote only once its last view leaves
// (internal/disk, "Committed page images") — while new and rebased views
// land on the promoted state. Every accessor that touches
// the swappable state is guarded; a *SharedBase is safe for concurrent
// use.
//
// A base has owners: whoever built or opened it holds the first, Retain
// adds one — the kinds of one physical layout that a snapshot stores once
// share one base, one owner each — and the last Release drops the arena.
// Only a base with a single owner promotes.
type SharedBase struct {
	kind     Kind
	pageSize int

	// publish serializes View.Commit's three steps — the generation check,
	// the log append and sync, Promote — so a view whose generation is
	// stale is refused before its batch reaches the log. Held across a
	// sync, so never taken under mu.
	publish sync.Mutex

	mu       sync.RWMutex
	owners   int // handles holding the base; the last Release drops the arena
	gen      uint64
	numPages int
	dir      *directory
	arena    *disk.BaseArena
	promoted int64 // bytes copied by Promote since the base was built
}

// directory is the immutable directory metadata of one or more consecutive
// generations (a commit that leaves it unchanged passes it on): the
// encoded blob and, decoded from it at most once, the tables every view
// of those generations attaches to.
type directory struct {
	meta   []byte
	once   sync.Once
	tables Model // a model without a device, RestoreMeta'd from meta
	err    error
}

// decoded returns the directory as a model of layout k to attach to. Under
// the poison tag every call first re-encodes it and panics unless it still
// is the blob byte for byte: a view that wrote the shared tables without
// copying them fails the next view that lands here.
func (d *directory) decoded(k Kind) (Model, error) {
	d.once.Do(func() {
		d.tables = NewWithEngine(k, &Engine{})
		if err := d.tables.RestoreMeta(d.meta); err != nil {
			d.tables, d.err = nil, fmt.Errorf("%w: %v", ErrRestore, err)
		}
	})
	if poison && d.err == nil {
		if b, err := d.tables.SnapshotMeta(); err != nil || !bytes.Equal(b, d.meta) {
			panic(fmt.Sprintf("store: %s: a generation's shared directory was written (%v)", k, err))
		}
	}
	return d.tables, d.err
}

// NewSharedBase assembles a base from raw parts (the snapshot package uses
// this to lift one model of a .codb file into a shareable base without
// constructing a throwaway engine). The arena length must be an exact
// multiple of the page size.
func NewSharedBase(k Kind, pageSize int, meta []byte, arena *disk.BaseArena) (*SharedBase, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("store: shared base with page size %d", pageSize)
	}
	if arena.Len()%pageSize != 0 {
		return nil, fmt.Errorf("store: shared base arena of %d bytes is not a multiple of page size %d",
			arena.Len(), pageSize)
	}
	return &SharedBase{
		kind:     k,
		pageSize: pageSize,
		numPages: arena.Len() / pageSize,
		owners:   1,
		dir:      &directory{meta: meta},
		arena:    arena,
	}, nil
}

// Freeze flushes m and copies its device arena and directory metadata into
// an immutable SharedBase. The model keeps working afterwards (its dirty
// pages are flushed as a side effect); the base never observes later
// changes. This is the in-memory counterpart of writing and re-opening a
// snapshot, at the cost of one arena copy — sized exactly — instead of
// one per engine that wants the loaded state. A caller that loads a
// model only to freeze it wants LoadBase, which copies nothing.
func Freeze(m Model) (*SharedBase, error) {
	if err := m.Flush(); err != nil {
		return nil, fmt.Errorf("store: freeze flush %s: %w", m.Kind(), err)
	}
	meta, err := m.SnapshotMeta()
	if err != nil {
		return nil, fmt.Errorf("store: freeze meta %s: %w", m.Kind(), err)
	}
	dev := m.Engine().Dev
	n := dev.NumPages() * dev.PageSize()
	buf := bytes.NewBuffer(make([]byte, 0, n))
	if err := dev.DumpTo(buf); err != nil {
		return nil, fmt.Errorf("store: freeze arena %s: %w", m.Kind(), err)
	}
	return NewSharedBase(m.Kind(), dev.PageSize(), meta, disk.NewBaseArena(buf.Bytes()))
}

// LoadBase builds the shared base of kind k over stations in place: the
// extension is loaded into a heap arena the sizing pass reserved in one
// piece, and that arena then becomes the base's floor — one allocation,
// no copy. The loader never leaves this function; o supplies the page
// size and fault schedule (the backend spec is superseded: a loader
// exists to be adopted, and only a heap arena can be).
func LoadBase(k Kind, o Options, stations []*cobench.Station) (*SharedBase, error) {
	o.Backend = disk.BackendSpec{Kind: disk.MemArena}
	m, err := New(k, o)
	if err != nil {
		return nil, err
	}
	defer m.Engine().Close()
	if err := m.Load(stations); err != nil {
		return nil, fmt.Errorf("store: load %s: %w", k, err)
	}
	return adopt(m)
}

// adopt consumes a loaded model over a heap arena: its directory metadata
// and the arena itself — detached from the device, not copied — become an
// immutable SharedBase. The model is dead afterwards: its pool is empty
// and its device fails every access with disk.ErrDetached.
func adopt(m Model) (*SharedBase, error) {
	eng := m.Engine()
	// Flush, then drop every frame: resident frames borrow arena pages,
	// and none may outlive the hand-off.
	if err := eng.ColdCache(); err != nil {
		return nil, fmt.Errorf("store: adopt flush %s: %w", m.Kind(), err)
	}
	meta, err := m.SnapshotMeta()
	if err != nil {
		return nil, fmt.Errorf("store: adopt meta %s: %w", m.Kind(), err)
	}
	arena, err := eng.Dev.Detach()
	if err != nil {
		return nil, fmt.Errorf("store: adopt %s: %w", m.Kind(), err)
	}
	return NewSharedBase(m.Kind(), eng.Dev.PageSize(), meta, disk.NewBaseArena(arena))
}

// Kind returns the storage model the base holds.
func (b *SharedBase) Kind() Kind { return b.kind }

// PageSize returns the device page size of the frozen arena.
func (b *SharedBase) PageSize() int { return b.pageSize }

// Gen returns the current generation: 0 for a freshly frozen base,
// incremented by every Promote. A view compares its captured generation
// against this to detect that it is reading superseded state.
func (b *SharedBase) Gen() uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.gen
}

// NumPages returns the number of frozen pages of the current generation.
func (b *SharedBase) NumPages() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.numPages
}

// ArenaBytes returns the size of the shared arena in bytes (memory
// accounting: this is paid once, regardless of how many views are open).
func (b *SharedBase) ArenaBytes() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.arena.Len()
}

// Mapped reports whether the arena's floor is an mmap of the snapshot
// file (paged in on demand) rather than a heap copy. Promotion keeps the
// floor — only committed pages move to the heap (DeltaPages) — so a
// mapped base stays mapped across commits.
func (b *SharedBase) Mapped() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.arena.Mapped()
}

// DeltaPages returns the number of committed page images the current
// generation holds on the heap over its floor (0 until the first commit,
// bounded by NumPages).
func (b *SharedBase) DeltaPages() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.arena.DeltaPages()
}

// PromotedBytes returns the bytes Promote has copied since the base was
// built: page images, table roots and leaves, changed metadata blobs. Over
// the dirty-page payload this is the in-memory write amplification of the commit path,
// the counterpart of the WAL's appended-over-payload ratio.
func (b *SharedBase) PromotedBytes() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.promoted
}

// Meta returns the directory metadata of the current generation (the
// checkpoint writer persists it alongside the arena). Read-only.
func (b *SharedBase) Meta() []byte {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.dir.meta
}

// Retain adds an owner and returns the base: each owner releases once,
// and the base stays read-only while it has more than one (Promote). The
// caller must be an owner already.
func (b *SharedBase) Retain() *SharedBase {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.owners <= 0 {
		panic("store: retain of a released shared base")
	}
	b.owners++
	return b
}

// Owners returns the number of owners holding the base (1 unless Retain
// shared it).
func (b *SharedBase) Owners() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.owners
}

// Release drops one owner. The last one drops the reference on the
// current arena; open views hold their own references, so the arena
// storage — heap slice or snapshot file mapping — is released only once
// the last view closes too. Opening new views after the last Release is a
// bug (the base may already be gone); releasing more often than owned is
// reported as an error.
func (b *SharedBase) Release() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.owners--; {
	case b.owners > 0:
		return nil
	case b.owners < 0:
		return fmt.Errorf("store: shared base %s over-released", b.kind)
	}
	return b.arena.Release()
}

// promotableLocked refuses a promote built on fromGen: the base has moved
// past that generation, or more than one owner holds it; b.mu held.
func (b *SharedBase) promotableLocked(fromGen uint64) error {
	if b.owners > 1 {
		return fmt.Errorf("%w: %s has %d owners", ErrSharedBase, b.kind, b.owners)
	}
	if b.gen != fromGen {
		return fmt.Errorf("%w: %s at generation %d, commit built on %d", ErrStaleBase, b.kind, b.gen, fromGen)
	}
	return nil
}

// promotable is promotableLocked under the read lock.
func (b *SharedBase) promotable(fromGen uint64) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.promotableLocked(fromGen)
}

// SnapshotState captures one consistent generation for a checkpoint
// writer: the generation number, its page count and metadata, and the
// arena holding one extra reference owned by the caller (Release it when
// the checkpoint is written). A Promote racing this call produces either
// wholly the old or wholly the new generation, never a mix.
func (b *SharedBase) SnapshotState() (gen uint64, numPages int, meta []byte, arena *disk.BaseArena) {
	st, arena := b.capture()
	return st.gen, st.numPages, st.dir.meta, arena
}

// baseState is the consistent snapshot a view captures when it lands on
// a generation: the generation it reads, and that generation's page count
// and directory (Recycle re-attaches to these — a recycled view stays on
// its generation; Rebase moves it to the current one).
type baseState struct {
	gen      uint64
	numPages int
	dir      *directory
}

// capture returns the current generation's state and its arena, retained
// under the lock so a concurrent Promote cannot release the generation
// out from under the caller (who owns the reference).
func (b *SharedBase) capture() (baseState, *disk.BaseArena) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return baseState{gen: b.gen, numPages: b.numPages, dir: b.dir}, b.arena.Retain()
}

// Open builds a model over a fresh copy-on-write view of the base. The
// options select the runtime knobs (buffer size, policy); the page size
// comes from the base and must not conflict with a non-zero o.PageSize,
// and any configured backend spec is superseded by the COW view. Closing
// the returned model's engine releases only its private overlay.
func (b *SharedBase) Open(o Options) (Model, error) { return b.OpenAs(b.kind, o) }

// OpenAs is Open for a model of kind k, which must share the base's
// physical layout (see NewViewAs).
func (b *SharedBase) OpenAs(k Kind, o Options) (Model, error) {
	v, err := b.NewViewAs(k, o)
	if err != nil {
		return nil, err
	}
	return v.m, nil
}

// Promote folds one committed overlay into the base as the next
// generation: numPages pages — the fromGen generation's content with the
// overlay images applied — and the committed metadata are swapped in
// atomically, and the generation number advances. An empty meta keeps this
// generation's directory, blob and decoded tables, by reference. The cost
// is the dirty set, not the arena or the extension: generations share one
// floor, so a promote copies the page table's root, the dirty pages'
// leaves and images and — only when it changed — the metadata blob
// (PromotedBytes counts exactly that); the caller keeps what it passed.
// fromGen must be the current generation (the optimistic-concurrency
// check: a commit is built against the generation its view read) or the
// promote fails with ErrStaleBase, changing nothing; a base with more than
// one owner fails every promote with ErrSharedBase. The owner reference
// moves to the new generation; in-flight views of old generations keep
// their own references and drain independently.
//
// Promotion is pure memory management: it moves no paper counter, like
// DumpTo and snapshot writes.
func (b *SharedBase) Promote(fromGen uint64, numPages int, meta []byte, pages map[int][]byte) (uint64, error) {
	if numPages < 0 {
		return 0, fmt.Errorf("store: promote %s to %d pages", b.kind, numPages)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.promotableLocked(fromGen); err != nil {
		return 0, err
	}
	next, copied := b.arena.Promote(b.pageSize, numPages, pages)
	old := b.arena
	b.arena = next
	b.numPages = numPages
	if len(meta) > 0 {
		b.dir = &directory{meta: append([]byte(nil), meta...)}
	}
	b.promoted += copied + int64(len(meta))
	b.gen++
	if err := old.Release(); err != nil {
		return 0, fmt.Errorf("store: promote %s: release generation %d: %w", b.kind, b.gen-1, err)
	}
	return b.gen, nil
}
