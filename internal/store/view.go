package store

import (
	"fmt"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/wal"
)

// View is a recyclable, request-scoped execution handle over a
// SharedBase: a copy-on-write model view (private overlay, private buffer
// pool, private counters) that can be reset to the pristine base between
// requests instead of being torn down and rebuilt. It implements the
// query surface the workload runner drives (workload.View), so a served
// request executes exactly the code path of a batch table cell and
// measures bit-identically to a freshly opened model.
//
// A View is not safe for concurrent use — one request at a time — but
// distinct views of one base are independent and run concurrently; that
// is the base's whole point.
type View struct {
	base *SharedBase
	kind Kind // the model the view runs; shares the base's layout
	eng  *Engine
	m    Model
	st   baseState // the generation this view reads

	// Commit's dirty set, kept between commits (empty outside one).
	patches map[int][]byte
	recs    []wal.PageRecord
}

// NewView opens a fresh copy-on-write view of the base's current
// generation, ready for its first request: cold cache, zeroed counters.
// The options select the runtime knobs (buffer size, policy); the page
// size comes from the base and must not conflict with a non-zero
// o.PageSize, and any configured backend spec is superseded by the COW
// view. A fresh view is an empty engine rebased onto the base — the one
// way a view lands on a generation.
func (b *SharedBase) NewView(o Options) (*View, error) { return b.NewViewAs(b.kind, o) }

// NewViewAs is NewView for a model of kind k over a base of the same
// physical layout (Kind.Layout): the arena and the directory metadata of
// DSM and DASDBS-DSM are identical, as are those of NSM and NSM+index, so
// one loaded base serves both kinds of a layout and the view's kind alone
// selects the access strategy. What the view commits belongs to the base,
// whatever kind wrote it.
func (b *SharedBase) NewViewAs(k Kind, o Options) (*View, error) {
	if k.Layout() != b.kind.Layout() {
		return nil, fmt.Errorf("store: %s view requested over a base of the %s layout", k, b.kind.Layout())
	}
	if o.PageSize != 0 && o.PageSize != b.pageSize {
		return nil, fmt.Errorf("store: page size %d requested, shared base has %d", o.PageSize, b.pageSize)
	}
	if o.CountIndexIO {
		return nil, fmt.Errorf("store: counted index I/O is rebuilt per run and cannot open from a shared base")
	}
	o.PageSize = b.pageSize
	o.Backend = disk.BackendSpec{Kind: disk.COWArena}
	eng, err := NewEngine(o)
	if err != nil {
		return nil, err
	}
	v := &View{base: b, kind: k, eng: eng, m: NewWithEngine(k, eng)}
	if err := v.Rebase(); err != nil {
		eng.Close()
		return nil, fmt.Errorf("store: open shared base %s: %w", b.kind, err)
	}
	return v, nil
}

// Gen returns the base generation the view reads. A view stays on its
// generation until it is rebased — Recycle resets to it, not to the
// base's latest — so a pool compares this against SharedBase.Gen to
// rebase views a commit left behind.
func (v *View) Gen() uint64 { return v.st.gen }

// Model returns the underlying model (diagnostics): one for the view's
// life, re-attached to a generation's directory by Recycle and Rebase.
func (v *View) Model() Model { return v.m }

// dirty reports whether the last request may have diverged the view from
// the pristine base: a materialized overlay page (any flushed write), an
// unflushed dirty frame in the pool, or device growth past the base. Every
// mutation path of the storage models writes pages — through the pool or
// straight to the device — so a view with none of the three is untouched.
func (v *View) dirty() bool {
	eng := v.eng
	if cs, ok := disk.COWStatsOf(eng.Dev.Backend()); ok && cs.OverlayPages > 0 {
		return true
	}
	if eng.Pool.DirtyLen() > 0 {
		return true
	}
	return eng.Dev.NumPages() != v.st.numPages
}

// Recycle resets the view to the pristine base state between requests:
// the buffer pool is emptied without flushing (the dirty frames describe
// overlay pages about to be dropped), the copy-on-write overlay is reset,
// and the counters are zeroed — so the next request starts exactly like
// the first one, cold cache and all, reusing the engine, the pool's frame
// free-lists and the overlay index instead of reallocating them. When the
// previous request mutated the database the model is re-attached to its
// generation's directory as well (reported in rebuilt): O(1), dropping any
// private copy of the tables. On error the view must be closed.
func (v *View) Recycle() (rebuilt bool, err error) {
	dirty := v.dirty()
	if err := v.eng.Pool.Discard(); err != nil {
		return false, fmt.Errorf("store: recycle %s: %w", v.base.kind, err)
	}
	if !v.eng.Dev.ResetView() {
		return false, fmt.Errorf("store: recycle %s: view engine is not copy-on-write", v.base.kind)
	}
	v.eng.ResetStats()
	if dirty {
		tables, err := v.st.dir.decoded(v.base.kind) // decoded when the view landed here
		if err != nil {
			return false, fmt.Errorf("store: recycle %s: %w", v.base.kind, err)
		}
		v.m.attach(tables)
	}
	return dirty, nil
}

// Rebase is Recycle onto the base's current generation: the buffer pool
// is emptied without flushing, the overlay dropped, the copy-on-write
// backend's base reference swapped to the generation captured under the
// base lock (in that order — borrowed frames alias pages of the old
// generation), the counters zeroed and the model attached to that
// generation's directory: decoded by the first view to land on it, shared
// by all, and the one the view left when no commit in between changed it.
// Afterwards the view is indistinguishable from one NewView just built —
// cold cache, zeroed counters, bit-identical measurements — but keeps its
// engine, frame buffers, overlay index and page images. Whatever the view
// had written and not committed is dropped. On error it must be closed.
func (v *View) Rebase() error {
	b := v.base
	st, arena := b.capture()
	defer arena.Release()
	tables, err := st.dir.decoded(b.kind)
	if err != nil {
		return fmt.Errorf("store: rebase %s: %w", b.kind, err)
	}
	if err := v.eng.Pool.Discard(); err != nil {
		return fmt.Errorf("store: rebase %s: %w", b.kind, err)
	}
	if err := v.eng.Dev.RebaseView(arena); err != nil {
		return fmt.Errorf("store: rebase %s: %w", b.kind, err)
	}
	v.eng.ResetStats()
	v.m.attach(tables)
	v.st = st
	return nil
}

// Close releases the view's engine: its private overlay, pool and — if
// this was the base's last reference — the base storage itself.
func (v *View) Close() error { return v.eng.Close() }

// The workload.View query surface, delegated to the model.

// Kind returns the storage model the view executes.
func (v *View) Kind() Kind { return v.m.Kind() }

// Engine exposes cache control and the view's private I/O counters.
func (v *View) Engine() *Engine { return v.eng }

// NumObjects returns the extension size.
func (v *View) NumObjects() int { return v.m.NumObjects() }

// FetchByAddress retrieves one whole object by address (query 1a); the
// Station is lent.
func (v *View) FetchByAddress(i int) (*cobench.Station, error) { return v.m.FetchByAddress(i) }

// FetchByKey retrieves one whole object by key selection (query 1b); the
// Station is lent.
func (v *View) FetchByKey(key int32) (*cobench.Station, error) { return v.m.FetchByKey(key) }

// ScanAll retrieves every object (query 1c).
func (v *View) ScanAll(fn func(i int, s *cobench.Station) error) error { return v.m.ScanAll(fn) }

// Navigate reads a root record and its children's identifiers.
func (v *View) Navigate(i int) (cobench.RootRecord, []int32, error) { return v.m.Navigate(i) }

// ReadRoot inputs just the root record of an object.
func (v *View) ReadRoot(i int) (cobench.RootRecord, error) { return v.m.ReadRoot(i) }

// UpdateRoots applies mutate to root records and writes them back.
func (v *View) UpdateRoots(idxs []int32, mutate func(i int32, r *cobench.RootRecord)) error {
	return v.m.UpdateRoots(idxs, mutate)
}

// Flush forces deferred writes out (end of an update query).
func (v *View) Flush() error { return v.m.Flush() }
