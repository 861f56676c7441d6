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
// A base has one owner, whoever built or opened it, and its Release drops
// the arena. The kinds of one physical layout that a snapshot stores once
// each get a base of their own over one floor (disk.BaseArena.Branch):
// every base promotes alone, and a commit through one never changes what
// another serves.
type SharedBase struct {
	kind Kind

	// publish serializes View.Commit's three steps — the generation check,
	// the log append and sync, Promote — so a view whose generation is
	// stale is refused before its batch reaches the log. Held across a
	// sync, so never taken under mu.
	publish sync.Mutex

	mu       sync.RWMutex
	released bool
	gen      uint64
	numPages int
	dir      *directory
	arena    *disk.BaseArena
	promoted int64 // bytes copied by Promote since the base was built
}

// directory is the immutable directory of one or more consecutive
// generations (a commit that leaves it unchanged passes it on), in two
// halves: the encoded blob that .codb files, checkpoints and WAL markers
// carry, and the tables — a model without a device — every view of those
// generations attaches to. A directory is built from either half: from
// the blob by NewSharedBase and Promote, from a loader's tables by adopt.
// The other half is derived from it at most once, when first asked for,
// each under its own Once: a base built from a blob decodes its tables at
// the first view, and a loaded base encodes its blob only when a
// checkpoint (SnapshotState) or the poison check reads it.
type directory struct {
	meta   []byte
	tables Model

	encode  sync.Once // meta from tables, on a directory built from them
	metaErr error
	decode  sync.Once // tables from meta, on a directory built from it
	err     error
}

// blob returns the directory's encoded blob.
func (d *directory) blob() ([]byte, error) {
	d.encode.Do(func() {
		if d.meta == nil {
			d.meta, d.metaErr = d.tables.SnapshotMeta()
		}
	})
	return d.meta, d.metaErr
}

// model returns the directory's tables, a model of layout k to attach to.
// Under the poison tag every call first re-encodes them and panics unless
// they still are the blob byte for byte: a view that wrote the shared
// tables without copying them fails the next view that lands here. (The
// first call comes before any view attaches, so a blob encoded then is the
// pristine one.)
func (d *directory) model(k Kind) (Model, error) {
	d.decode.Do(func() {
		if d.tables != nil {
			return
		}
		d.tables = NewWithEngine(k, &Engine{})
		if err := d.tables.RestoreMeta(d.meta); err != nil {
			d.tables, d.err = nil, fmt.Errorf("%w: %v", ErrRestore, err)
		}
	})
	if poison && d.err == nil {
		want, err := d.blob()
		if b, err2 := d.tables.SnapshotMeta(); err != nil || err2 != nil || !bytes.Equal(b, want) {
			panic(fmt.Sprintf("store: %s: a generation's shared directory was written (%v, %v)", k, err, err2))
		}
	}
	return d.tables, d.err
}

// NewSharedBase assembles a base from raw parts (the snapshot package uses
// this to lift one model of a .codb file into a shareable base without
// constructing a throwaway engine): its directory is built from the blob
// meta, and its first view decodes the tables. The arena holds whole
// pages; a view of a base that does not fails to open.
func NewSharedBase(k Kind, meta []byte, arena *disk.BaseArena) *SharedBase {
	if meta == nil {
		meta = []byte{} // a directory built from its blob has one, if empty
	}
	return newBase(k, &directory{meta: meta}, arena)
}

// newBase is generation 0 of a base of kind k over arena, with directory
// dir.
func newBase(k Kind, dir *directory, arena *disk.BaseArena) *SharedBase {
	return &SharedBase{kind: k, numPages: arena.Len() / disk.DefaultPageSize, dir: dir, arena: arena}
}

// Branch opens a base of kind k, of b's layout, on b's floor: generation
// 0 of a branch of its own (disk.BaseArena.Branch) that shares b's
// directory, each half derived once for both. Only a base that has not
// promoted branches.
func (b *SharedBase) Branch(k Kind) (*SharedBase, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	arena, err := b.arena.Branch()
	if err != nil {
		return nil, err
	}
	return &SharedBase{kind: k, numPages: b.numPages, dir: b.dir, arena: arena}, nil
}

// Freeze flushes m and copies its device arena and directory metadata into
// an immutable SharedBase. The model keeps working afterwards (its dirty
// pages are flushed as a side effect); the base never observes later
// changes. This is the in-memory counterpart of writing and re-opening a
// snapshot, at the cost of one arena copy — sized exactly, allocated like
// a loader's arena (disk.Disk.CopyBase) and freed at the base's last
// release — instead of one per engine that wants the loaded state. A
// caller that loads a model only to freeze it wants LoadBase, which
// copies nothing.
func Freeze(m Model) (*SharedBase, error) {
	if err := m.Flush(); err != nil {
		return nil, fmt.Errorf("store: freeze flush %s: %w", m.Kind(), err)
	}
	meta, err := m.SnapshotMeta()
	if err != nil {
		return nil, fmt.Errorf("store: freeze meta %s: %w", m.Kind(), err)
	}
	arena, err := m.Engine().Dev.CopyBase()
	if err != nil {
		return nil, fmt.Errorf("store: freeze arena %s: %w", m.Kind(), err)
	}
	return NewSharedBase(m.Kind(), meta, arena), nil
}

// LoadBase builds the shared base of kind k over stations in place: the
// extension is loaded into a loader arena the sizing pass reserved in one
// piece, and that arena then becomes the base's floor — one allocation,
// no copy, outside the Go heap (disk.LiveArenaBytes counts it) and freed
// at the base's last Release. The loader's directory tables become the
// base's as they are, so a loaded base never decodes a blob, and encodes
// one only for a checkpoint. The loader never leaves this function, and a
// load that fails frees its arena before returning; o supplies the fault
// schedule.
func LoadBase(k Kind, o Options, stations []*cobench.Station) (*SharedBase, error) {
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

// adopt consumes a loaded model over a loader arena: the arena — detached
// from the device as a floor that owns it (disk.Disk.Detach), not copied
// — and the directory tables — moved by reference into a model without a
// device, as attach shares them, not encoded — become an immutable
// SharedBase, which frees the arena at its last Release. The model is
// dead afterwards: its pool is empty, its device fails every access with
// disk.ErrDetached, and it is attached to the tables it gave away, so
// nothing it does writes them. A model whose objects share a key is
// refused (a key selects one object), and so is a counted NSM+index
// model: its B+-trees live in the engine's own pages.
func adopt(m Model) (*SharedBase, error) {
	var keys map[int32]int
	switch m := m.(type) {
	case *direct:
		keys = m.keyIdx
	case *nsm:
		if m.countIndexIO {
			return nil, fmt.Errorf("store: adopt %s: %w", m.Kind(), errCountedIndex)
		}
		keys = m.keyIdx
	case *dnsm:
		keys = m.keyIdx
	}
	if len(keys) != m.NumObjects() { // Load keeps the last object of a key
		return nil, fmt.Errorf("store: adopt %s: %d objects under %d keys: %w", m.Kind(), m.NumObjects(), len(keys), ErrDuplicateKey)
	}
	eng := m.Engine()
	// Flush, then drop every frame: resident frames borrow arena pages,
	// and none may outlive the hand-off.
	if err := eng.ColdCache(); err != nil {
		return nil, fmt.Errorf("store: adopt flush %s: %w", m.Kind(), err)
	}
	arena, err := eng.Dev.Detach()
	if err != nil {
		return nil, fmt.Errorf("store: adopt %s: %w", m.Kind(), err)
	}
	tables := NewWithEngine(m.Kind(), &Engine{})
	tables.attach(m)
	m.attach(tables)
	return newBase(m.Kind(), &directory{tables: tables}, arena), nil
}

// Kind returns the storage model the base holds.
func (b *SharedBase) Kind() Kind { return b.kind }

// PageSize returns the device page size of the frozen arena,
// disk.DefaultPageSize.
func (b *SharedBase) PageSize() int { return disk.DefaultPageSize }

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
// generation holds over its floor, off the Go heap in its branch's page
// pool (0 until the first commit, bounded by NumPages).
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

// Owners returns the number of bases standing on the base's floor: 1, or
// more while bases of other kinds of its layout share the stored bytes.
func (b *SharedBase) Owners() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.arena.Branches()
}

// Release drops the owner's reference on the current arena; open views
// hold their own references, so the arena storage — heap slice or
// snapshot file mapping — is released only once the last view closes too.
// Opening new views after Release is a bug (the base may already be
// gone); releasing twice is reported as an error.
func (b *SharedBase) Release() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.released {
		return fmt.Errorf("store: shared base %s over-released", b.kind)
	}
	b.released = true
	return b.arena.Release()
}

// promotableLocked refuses a promote built on fromGen: the base has moved
// past that generation; b.mu held.
func (b *SharedBase) promotableLocked(fromGen uint64) error {
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
// writer: the generation number, its page count and directory blob —
// encoded here, once per directory, if the base was loaded — and the
// arena holding one extra reference owned by the caller (Release it when
// the checkpoint is written). A Promote racing this call produces either
// wholly the old or wholly the new generation, never a mix.
func (b *SharedBase) SnapshotState() (gen uint64, numPages int, meta []byte, arena *disk.BaseArena) {
	st, arena := b.capture()
	meta, err := st.dir.blob()
	if err != nil { // adopt refused a repeated key and a counted index: loaded tables encode
		arena.Release()
		panic(fmt.Sprintf("store: %s: a loaded directory does not encode: %v", b.kind, err))
	}
	return st.gen, st.numPages, meta, arena
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

// Promote folds one committed overlay into the base as the next
// generation: numPages pages — the fromGen generation's content with the
// overlay images applied — and the committed metadata are swapped in
// atomically, and the generation number advances. An empty meta keeps this
// generation's directory, blob and tables, by reference. The cost
// is the dirty set, not the arena or the extension: generations share one
// floor, so a promote copies the page table's root, the dirty pages'
// leaves and images and — only when it changed — the metadata blob
// (PromotedBytes counts exactly that); the caller keeps what it passed.
// fromGen must be the current generation (the optimistic-concurrency
// check: a commit is built against the generation its view read) or the
// promote fails with ErrStaleBase, changing nothing. The owner reference
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
	next, copied := b.arena.Promote(numPages, pages)
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
