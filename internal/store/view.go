package store

import (
	"fmt"

	"complexobj/internal/disk"
	"complexobj/internal/wal"
)

// View is a recyclable, request-scoped execution handle over a
// SharedBase: a copy-on-write model view (private overlay, private buffer
// pool, private counters) that can be reset to the pristine base between
// requests instead of being torn down and rebuilt. It is its model: the
// embedded Model is one for the view's life, re-attached to a
// generation's directory by Recycle and Rebase, and answers the query
// surface Model states — so a served request executes exactly the code
// path of a batch table cell and measures bit-identically to a freshly
// opened model.
//
// A View is not safe for concurrent use — one request at a time — but
// distinct views of one base are independent and run concurrently; that
// is the base's whole point.
type View struct {
	Model
	base *SharedBase
	eng  *Engine
	st   baseState // the generation this view reads

	// Commit's dirty set, kept between commits (empty outside one).
	patches map[int][]byte
	recs    []wal.PageRecord
}

// NewView opens a fresh copy-on-write view of the base's current
// generation, ready for its first request: cold cache, zeroed counters.
// The options select the runtime knobs (buffer size, policy). A fresh
// view is an empty engine rebased onto the base — the one way a view
// lands on a generation.
func (b *SharedBase) NewView(o Options) (*View, error) { return b.NewViewAs(b.kind, o) }

// NewViewAs is NewView for a model of kind k over a base of the same
// physical layout (Kind.Layout): the arena and the directory metadata of
// DSM and DASDBS-DSM are identical, as are those of NSM and NSM+index, so
// one loaded base serves both kinds of a layout and the view's kind alone
// selects the access strategy. What the view commits belongs to the base,
// whatever kind wrote it.
//
// o.CountIndexIO opens a counted NSM+index view: once landed, the view
// builds its four B+-trees into its own overlay, past the base's pages —
// at the page ids a private load gives them — and then starts cold with
// zeroed counters, so it measures what a private counted load measures.
// Such a view is single-use: Recycle and Rebase would drop its trees and
// Commit would publish them, so all three refuse it. Every other kind
// refuses CountIndexIO.
func (b *SharedBase) NewViewAs(k Kind, o Options) (*View, error) {
	if k.Layout() != b.kind.Layout() {
		return nil, fmt.Errorf("store: %s view requested over a base of the %s layout", k, b.kind.Layout())
	}
	if o.CountIndexIO && k != NSMIndex {
		return nil, fmt.Errorf("store: counted index I/O requested for %s, only %s has an index", k, NSMIndex)
	}
	eng, err := newEngine(o, true)
	if err != nil {
		return nil, err
	}
	v := &View{Model: NewWithEngine(k, eng), base: b, eng: eng}
	err = v.rebase()
	if err == nil && o.CountIndexIO {
		if err = v.Model.(*nsm).buildTrees(); err == nil {
			err = eng.ColdCache()
			eng.ResetStats()
		}
	}
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("store: open shared base %s: %w", b.kind, err)
	}
	return v, nil
}

// singleUse refuses op on a counted view (NewViewAs).
func (v *View) singleUse(op string) error {
	if v.eng.opts.CountIndexIO {
		return fmt.Errorf("store: cannot %s a counted-index view: its B+-trees live in its overlay", op)
	}
	return nil
}

// Gen returns the base generation the view reads. A view stays on its
// generation until it is rebased — Recycle resets to it, not to the
// base's latest — so a pool compares this against SharedBase.Gen to
// rebase views a commit left behind.
func (v *View) Gen() uint64 { return v.st.gen }

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
	if err := v.singleUse("recycle"); err != nil {
		return false, err
	}
	if err := v.eng.writable("Recycle"); err != nil {
		return false, err
	}
	dirty := v.dirty()
	if err := v.eng.Pool.Discard(); err != nil {
		return false, fmt.Errorf("store: recycle %s: %w", v.base.kind, err)
	}
	if !v.eng.Dev.ResetView() {
		return false, fmt.Errorf("store: recycle %s: view engine is not copy-on-write", v.base.kind)
	}
	v.eng.ResetStats()
	if dirty {
		tables, err := v.st.dir.model(v.base.kind) // derived when the view landed here
		if err != nil {
			return false, fmt.Errorf("store: recycle %s: %w", v.base.kind, err)
		}
		v.Model.attach(tables)
	}
	return dirty, nil
}

// Rebase is Recycle onto the base's current generation: the buffer pool
// is emptied without flushing, the overlay dropped, the copy-on-write
// backend's base reference swapped to the generation captured under the
// base lock (in that order — borrowed frames alias pages of the old
// generation), the counters zeroed and the model attached to that
// generation's directory: the loader's tables, or decoded from the blob by
// the first view to land on it; shared by all, and the one the view left
// when no commit in between changed it.
// Afterwards the view is indistinguishable from one NewView just built —
// cold cache, zeroed counters, bit-identical measurements — but keeps its
// engine, frame buffers, overlay index and page images. Whatever the view
// had written and not committed is dropped. On error it must be closed.
func (v *View) Rebase() error {
	if err := v.singleUse("rebase"); err != nil {
		return err
	}
	if err := v.eng.writable("Rebase"); err != nil {
		return err
	}
	return v.rebase()
}

// rebase is Rebase without the counted-view refusal: how NewViewAs lands.
func (v *View) rebase() error {
	b := v.base
	st, arena := b.capture()
	defer arena.Release()
	tables, err := st.dir.model(b.kind)
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
	v.Model.attach(tables)
	v.st = st
	return nil
}

// Close releases the view's engine: its private overlay, pool and — if
// this was the base's last reference — the base storage itself.
func (v *View) Close() error { return v.eng.Close() }
