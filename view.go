package complexobj

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/store"
	"complexobj/internal/workload"
)

// View is a request-scoped handle on a Base: an independent database view
// (copy-on-write overlay, private buffer pool, private I/O counters) that
// costs almost nothing to open and nothing to reuse. Views are how a
// long-lived process serves concurrent traffic from one loaded database —
// each in-flight request runs on its own view, measures its own counters,
// and the shared base is never copied. A View is not safe for concurrent
// use; run one request on it at a time.
//
// Views come from Base.NewView (standalone; Close destroys it) or from a
// ViewPool (Close recycles it back into the pool).
type View struct {
	kind ModelKind
	engine
	pool *ViewPool
	// closed flips on Close, making a double Close an error instead of a
	// double release. A View is one lease: pools hand every acquisition a
	// fresh wrapper, so a stale closed handle can never reach the engine
	// of a later lease.
	closed atomic.Bool
	// damaged flips on Quarantine: Close then destroys the engine
	// instead of recycling it into the pool.
	damaged atomic.Bool
}

// engine is what outlives a lease: the recyclable store view and the
// workload runner that drives it. The runner's scratch is grown for this
// engine's queries, so it stays with the engine — in the pool between
// leases — and never moves to another.
type engine struct {
	sv  *store.View
	run *workload.Runner
}

func newEngine(sv *store.View) engine {
	return engine{sv: sv, run: workload.NewRunner(sv, cobench.Workload{})}
}

// NewView opens a fresh standalone view of the base, with a cold cache
// and zeroed counters. The options follow the same rules as Base.Open.
func (b *Base) NewView(opts Options) (*View, error) {
	return b.newView(opts.internal())
}

func (b *Base) newView(opts store.Options) (*View, error) {
	sv, err := b.storeView(opts)
	if err != nil {
		return nil, err
	}
	return &View{kind: b.kind, engine: newEngine(sv)}, nil
}

// storeView opens the store view under every view of the base (Base.Open,
// NewView, a pool's). Counted index I/O is refused here: a counted view is
// single-use, and the facade's views are recycled and commit, so only a
// private database (Open, OpenLoaded) counts its index.
func (b *Base) storeView(opts store.Options) (*store.View, error) {
	if opts.CountIndexIO {
		return nil, fmt.Errorf("complexobj: CountIndexIO needs a private database (Open, OpenLoaded), not a view of a base")
	}
	return b.base.NewViewAs(b.kind, opts)
}

// Kind returns the storage model the view executes.
func (v *View) Kind() ModelKind { return v.kind }

// NumObjects returns the number of objects in the base extension (0
// after Close).
func (v *View) NumObjects() int {
	if v.closed.Load() {
		return 0
	}
	return v.sv.NumObjects()
}

// Run executes one benchmark query on the view and returns its
// measurement. This is the same execution path as DB.Run — the same
// runner over the same interface — so a view measures bit-identically to
// a freshly loaded batch database. Running on a closed view is an error:
// for a pooled view the engine may already be serving another lease.
func (v *View) Run(q cobench.Query, w cobench.Workload) (QueryResult, error) {
	return v.RunContext(nil, q, w)
}

// RunContext is Run bounded by ctx: the query checks the context between
// object visits and stops with its error (wrapping context.DeadlineExceeded
// or context.Canceled), so a deadlined request frees its view promptly
// instead of finishing a scan nobody waits for. An interrupted run
// reports no counters at all — never a truncated measurement. A nil ctx
// never interrupts.
func (v *View) RunContext(ctx context.Context, q cobench.Query, w cobench.Workload) (QueryResult, error) {
	if v.closed.Load() {
		return QueryResult{}, fmt.Errorf("complexobj: Run on a closed view")
	}
	return runQuery(ctx, v.kind, v.run, q, w)
}

// Quarantine marks the view damaged — a request panicked on it, or an
// engine-level fault (a permanently poisoned page) makes its reuse
// unsafe. Close then destroys the engine instead of recycling it into
// the pool, and the pool counts it as Quarantined; for a standalone view
// Quarantine changes nothing (Close destroys it anyway).
func (v *View) Quarantine() { v.damaged.Store(true) }

// Stats returns the view's private accumulated I/O counters (zero after
// Close — the engine may already belong to another lease).
func (v *View) Stats() Stats {
	if v.closed.Load() {
		return Stats{}
	}
	return v.sv.Engine().Stats()
}

// ViewMemStats describes what a view costs beyond its shared base.
type ViewMemStats struct {
	// BaseBytes is the size of the shared arena (paid once per base, not
	// per view).
	BaseBytes int
	// OverlayPages is the number of base pages this view has privately
	// materialized by writing; OverlayBytes is their memory.
	OverlayPages int
	OverlayBytes int
}

// MemStats reports the view's private memory split (the buffer pool, of
// capacity Options.BufferPages, comes on top; zero after Close).
func (v *View) MemStats() ViewMemStats {
	if v.closed.Load() {
		return ViewMemStats{}
	}
	cs, _ := disk.COWStatsOf(v.sv.Engine().Dev.Backend())
	return ViewMemStats{BaseBytes: cs.BaseBytes, OverlayPages: cs.OverlayPages, OverlayBytes: cs.OverlayBytes}
}

// Close finishes the request the view was serving. A pooled view is
// recycled back into its pool (overlay dropped, pool emptied, counters
// zeroed — the next request finds it indistinguishable from fresh); a
// standalone view releases its engine.
func (v *View) Close() error {
	if !v.closed.CompareAndSwap(false, true) {
		return fmt.Errorf("complexobj: view closed twice")
	}
	if v.pool != nil {
		return v.pool.release(v)
	}
	return v.sv.Close()
}

// ErrPoolClosed reports Acquire on a closed ViewPool.
var ErrPoolClosed = errors.New("complexobj: view pool is closed")

// ViewPool serves request-scoped views of one Base and recycles them:
// releasing a view resets it to the pristine base state (reusing its
// engine, buffer-frame free lists and overlay index) instead of tearing
// it down, so a steady-state server allocates next to nothing per
// request. The views share the staging of NSM's whole-extension scans, so
// a view the pool opens late does not grow its own. A view a commit left
// behind — the committer's own, or an idle sibling — is reset onto the new
// generation the same way (rebased), not rebuilt. The pool also bounds concurrency — at most MaxViews views are
// out at once, further Acquires block — which caps the server's memory at
// MaxViews × (buffer pool + dirtied overlay pages) over the shared base.
//
// The pool does not own its Base: close the pool first, the base after
// (views in flight keep the base arena alive either way, but opening new
// views from a closed base is a bug).
type ViewPool struct {
	base  *Base
	opts  Options
	max   int
	sem   chan struct{}
	done  chan struct{}
	scans store.ScanStages // every view's NSM scan staging (store.Options.Scans)

	mu sync.Mutex
	// idle holds the recycled engines, each with its runner. Acquire wraps
	// each handout in a fresh *View, so a stale handle from a previous
	// lease — including a duplicate Close racing a later request — can
	// never touch the engine its new holder is using; the wrapper is the
	// entire per-request allocation.
	idle        []engine
	closed      bool
	created     int64
	reused      int64
	destroyed   int64
	recycled    int64
	rebuilt     int64
	quarantined int64
	stale       int64
}

// NewViewPool builds a pool over base. maxViews bounds the views alive at
// once (and therefore the concurrent requests served from this base);
// maxViews <= 0 defaults to 8. The options apply to every view and follow
// the same rules as Base.Open; options no view can open with
// (CountIndexIO) fail the first Acquire. The error
// result is always nil: no option is left that can be refused before a
// view is opened.
func NewViewPool(base *Base, opts Options, maxViews int) (*ViewPool, error) {
	if maxViews <= 0 {
		maxViews = 8
	}
	return &ViewPool{
		base: base,
		opts: opts,
		max:  maxViews,
		sem:  make(chan struct{}, maxViews),
		done: make(chan struct{}),
	}, nil
}

// Base returns the pool's underlying base.
func (p *ViewPool) Base() *Base { return p.base }

// Acquire returns a view ready for one request, blocking while MaxViews
// views are already out. Close the view to return it.
func (p *ViewPool) Acquire() (*View, error) {
	return p.AcquireContext(context.Background())
}

// AcquireContext is Acquire, giving up when ctx is done (so e.g. an HTTP
// request canceled while waiting for a view stops waiting).
func (p *ViewPool) AcquireContext(ctx context.Context) (*View, error) {
	// A free slot is taken without waiting on ctx: ctx.Done() makes a
	// request context allocate its channel, which only contention should
	// pay for. A pool closed meanwhile is caught under the lock below.
	select {
	case p.sem <- struct{}{}:
	default:
		select {
		case p.sem <- struct{}{}:
		case <-p.done:
			return nil, ErrPoolClosed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.sem
		return nil, ErrPoolClosed
	}
	var e engine
	if n := len(p.idle); n > 0 {
		e = p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.reused++
	}
	p.mu.Unlock()
	sv := e.sv
	if sv == nil {
		opts := p.opts.internal()
		opts.Scans = &p.scans
		v, err := p.base.newView(opts)
		if err != nil {
			<-p.sem
			return nil, err
		}
		v.pool = p
		p.mu.Lock()
		p.created++
		p.mu.Unlock()
		return v, nil
	}
	// An idle view left behind by a commit reads a superseded generation:
	// rebase it onto the current one in place. The lease is ours alone, so
	// this runs outside the pool lock.
	if sv.Gen() != p.base.base.Gen() {
		if err := sv.Rebase(); err != nil {
			p.mu.Lock()
			p.reused--
			p.destroyed++
			p.mu.Unlock()
			sv.Close()
			<-p.sem
			return nil, err
		}
		p.mu.Lock()
		p.countRebase()
		p.mu.Unlock()
	}
	return &View{kind: p.base.kind, engine: e, pool: p}, nil
}

// countRebase counts one stale view moved onto the current generation: a
// successful reset that re-attached the directory. Caller holds p.mu.
func (p *ViewPool) countRebase() {
	p.stale++
	p.recycled++
	p.rebuilt++
}

// release resets v and returns it to the pool — recycled on its
// generation, or rebased when a commit (its own or another view's) has
// promoted the base past it — or destroys it if it was quarantined, the
// reset failed or the pool has closed, and frees its concurrency slot.
func (p *ViewPool) release(v *View) error {
	defer func() { <-p.sem }()
	if v.damaged.Load() {
		p.mu.Lock()
		p.quarantined++
		p.destroyed++
		p.mu.Unlock()
		return v.sv.Close()
	}
	stale := v.sv.Gen() != p.base.base.Gen()
	var rebuilt bool
	var err error
	if stale {
		err = v.sv.Rebase()
	} else {
		rebuilt, err = v.sv.Recycle()
	}
	p.mu.Lock()
	if err == nil {
		if stale {
			p.countRebase()
		} else {
			p.recycled++
			if rebuilt {
				p.rebuilt++
			}
		}
		if !p.closed {
			p.idle = append(p.idle, v.engine)
			p.mu.Unlock()
			return nil
		}
	}
	p.destroyed++
	p.mu.Unlock()
	if cerr := v.sv.Close(); err == nil {
		err = cerr
	}
	return err
}

// ViewPoolStats describes pool effectiveness over the pool's lifetime:
// Reused counts acquisitions served by a recycled or rebased view (the
// steady state), Created the views built from the base, Recycled the
// successful view resets, Rebuilt the subset of those that re-attached the
// model to a generation's directory (after a mutating request, or to land
// on a new generation — the events it always counted, though since the
// directory is decoded once per generation and shared, each is now an
// O(1) re-attach, not a decode), Stale the subset found behind the base — a commit promoted
// it past their generation — and rebased onto the current generation in
// place, Destroyed the views torn down (quarantine, reset failure or pool
// shutdown), Quarantined the subset of Destroyed retired via
// View.Quarantine (panicked request, permanent engine fault). The JSON
// tags and the field order are the served /info pool block's.
type ViewPoolStats struct {
	MaxViews    int   `json:"maxViews"`
	InUse       int   `json:"inUse"`
	Idle        int   `json:"idle"`
	Created     int64 `json:"created"`
	Reused      int64 `json:"reused"`
	Recycled    int64 `json:"recycled"`
	Rebuilt     int64 `json:"rebuilt"`
	Destroyed   int64 `json:"destroyed"`
	Quarantined int64 `json:"quarantined"`
	Stale       int64 `json:"stale"`
}

// Stats returns a snapshot of the pool counters.
func (p *ViewPool) Stats() ViewPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ViewPoolStats{
		MaxViews:    p.max,
		InUse:       len(p.sem),
		Idle:        len(p.idle),
		Created:     p.created,
		Reused:      p.reused,
		Recycled:    p.recycled,
		Rebuilt:     p.rebuilt,
		Destroyed:   p.destroyed,
		Quarantined: p.quarantined,
		Stale:       p.stale,
	}
}

// Close marks the pool closed (unblocking and failing pending Acquires)
// and destroys the idle views. Views still in flight are destroyed as
// they are released.
func (p *ViewPool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	close(p.done)
	var first error
	for _, e := range idle {
		if err := e.sv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
