// Package complexobj is a reproduction of Teeuw, Rich, Scholl and Blanken,
// "An Evaluation of Physical Disk I/Os for Complex Object Processing"
// (ICDE 1993): a storage system for hierarchical complex objects (NF²
// nested tuples with object references) implementing the paper's four
// storage models over a simulated DASDBS page engine, together with the
// revised Altair benchmark and the analytical disk-I/O cost model.
//
// This root package is the facade: open a database under one of the
// storage models, load a benchmark extension, run queries, and read the
// exact I/O statistics the paper reports (physical page I/Os, I/O calls,
// buffer fixes). The companion packages provide the building blocks:
//
//   - cobench: the benchmark objects, generator and workload (paper §2);
//   - nf2: the complex object model and binary encoding;
//   - costmodel: the analytical estimators, Equations 2-8 (paper §3-4);
//   - experiments: the harness regenerating every table and figure (§4-5);
//   - report: plain-text/Markdown/CSV rendering for the above.
package complexobj

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"complexobj/cobench"
	"complexobj/internal/buffer"
	"complexobj/internal/iostat"
	"complexobj/internal/snapshot"
	"complexobj/internal/store"
	"complexobj/internal/workload"
)

// ModelKind selects one of the paper's storage models.
type ModelKind int

const (
	// DSM is the direct storage model (§3.1): whole objects clustered on
	// as few pages as possible, always transferred entirely.
	DSM ModelKind = iota
	// DASDBSDSM adds the DASDBS object header: only the pages actually
	// used by a query are transferred (§3.2).
	DASDBSDSM
	// NSM is the normalized storage model: four flat relations with
	// foreign keys, no index (§3.3).
	NSM
	// NSMIndex is NSM with a zero-cost in-memory index.
	NSMIndex
	// DASDBSNSM is the nested-normalized model with a transformation
	// table (§3.4) — the paper's overall winner.
	DASDBSNSM
)

// String implements fmt.Stringer using the paper's names.
func (k ModelKind) String() string { return k.internal().String() }

func (k ModelKind) internal() store.Kind {
	switch k {
	case DSM:
		return store.DSM
	case DASDBSDSM:
		return store.DASDBSDSM
	case NSM:
		return store.NSM
	case NSMIndex:
		return store.NSMIndex
	case DASDBSNSM:
		return store.DASDBSNSM
	default:
		panic(fmt.Sprintf("complexobj: unknown model kind %d", int(k)))
	}
}

// AllModels lists the storage models in the paper's order.
func AllModels() []ModelKind { return []ModelKind{DSM, DASDBSDSM, NSM, NSMIndex, DASDBSNSM} }

// ModelByName resolves the paper's model names (case-sensitive, as printed
// by String) plus the short aliases dsm, ddsm, nsm, nsmx and dnsm.
func ModelByName(name string) (ModelKind, error) {
	switch name {
	case "DSM", "dsm":
		return DSM, nil
	case "DASDBS-DSM", "ddsm":
		return DASDBSDSM, nil
	case "NSM", "nsm":
		return NSM, nil
	case "NSM+index", "nsmx", "nsm+index":
		return NSMIndex, nil
	case "DASDBS-NSM", "dnsm":
		return DASDBSNSM, nil
	default:
		return 0, fmt.Errorf("complexobj: unknown storage model %q", name)
	}
}

// Options configure the simulated installation. The zero value uses the
// paper's setup: 2048-byte pages, a 1200-page LRU cache, free index I/O,
// page images in memory.
type Options struct {
	// PageSize is the raw page size in bytes (default 2048).
	PageSize int
	// BufferPages is the cache capacity in pages (default 1200).
	BufferPages int
	// ClockReplacement switches the cache from LRU to the Clock policy.
	ClockReplacement bool
	// CountIndexIO equips the NSMIndex model with disk-resident B+-tree
	// indexes whose page accesses are counted, instead of the paper's
	// free in-memory address tables (§5.1). See experiments.IndexAblation
	// for the quantified effect. Open and OpenLoaded honour it; views of a
	// Base refuse it.
	CountIndexIO bool
	// Faults, when non-nil, injects the plan's seeded fault schedule
	// under every engine opened with these options (see ParseFaultPlan).
	// Injected faults surface as errors; the counters of successful
	// operations are never altered — the device counts only completed
	// transfers, so a retried transient fault is invisible in the
	// paper's statistics.
	Faults *FaultPlan
}

func (o Options) internal() store.Options {
	so := store.Options{
		PageSize:     o.PageSize,
		BufferPages:  o.BufferPages,
		CountIndexIO: o.CountIndexIO,
		Faults:       o.Faults.injector(),
	}
	if o.ClockReplacement {
		so.Policy = buffer.Clock
	}
	return so
}

// Stats are the I/O counters of a database, the quantities the paper
// evaluates: transferred pages (Table 4), I/O calls (Table 5) and buffer
// fixes (Table 6). Pages() and Calls() are the paper's X_{I/O pages} and
// X_{I/O calls}. It is the engine's own counter set, not a copy of it.
type Stats = iostat.Stats

// PerUnit are Stats normalized per unit (objects for query family 1,
// loops for families 2 and 3): the numbers of the paper's tables.
type PerUnit = iostat.PerUnit

// DB is one database instance: a storage model over its own simulated
// disk and buffer pool. DB is not safe for concurrent use.
type DB struct {
	kind  ModelKind
	model store.Model
	run   *workload.Runner // Run's runner, whose scratch is this database's
}

func newDB(kind ModelKind, m store.Model) *DB {
	return &DB{kind: kind, model: m, run: workload.NewRunner(m, cobench.Workload{})}
}

// Open creates an empty database under the given storage model, over a
// private in-memory arena.
func Open(kind ModelKind, opts Options) (*DB, error) {
	m, err := store.New(kind.internal(), opts.internal())
	if err != nil {
		return nil, err
	}
	return newDB(kind, m), nil
}

// OpenLoaded creates a database and loads a freshly generated benchmark
// extension into it; statistics start at zero with a cold cache.
func OpenLoaded(kind ModelKind, opts Options, gen cobench.Config) (*DB, error) {
	stations, err := cobench.Generate(gen)
	if err != nil {
		return nil, err
	}
	db, err := Open(kind, opts)
	if err != nil {
		return nil, err
	}
	if err := db.Load(stations); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// Kind returns the database's storage model.
func (db *DB) Kind() ModelKind { return db.kind }

// Close flushes dirty pages and releases the storage backend (a view
// drops its overlay and its reference on the base). A loaded database's
// arena lives outside the Go heap and is freed only here: one never
// closed keeps it until the process exits. To keep a database across
// runs, WriteSnapshot it first and OpenBase it later.
// The database must not be used afterwards. Close is a no-op for repeated
// calls only in the sense that errors repeat; call it once.
func (db *DB) Close() error {
	return db.model.Engine().Close()
}

// WriteSnapshot serializes the loaded databases into a .codb snapshot
// file. The generator configuration is stored alongside so consumers can
// verify which extension the snapshot holds. Each database keeps working
// after the snapshot (dirty pages are flushed as a side effect).
func WriteSnapshot(path string, gen cobench.Config, dbs ...*DB) error {
	models := make([]store.Model, len(dbs))
	for i, db := range dbs {
		models[i] = db.model
	}
	return snapshot.Write(path, gen, models...)
}

// ExtractSnapshot writes a new .codb snapshot at dst holding only the
// selected models of src, copying their meta and arena bytes verbatim —
// the segment-split primitive of the scale-out layer (cogen -split).
// A base opened from the extracted segment is bit-identical to one opened
// from the full snapshot, so handing a shard to another node is a file
// move plus an mmap, never a reload.
func ExtractSnapshot(src, dst string, models []ModelKind) error {
	kinds := make([]store.Kind, len(models))
	for i, m := range models {
		kinds[i] = m.internal()
	}
	return snapshot.Extract(src, dst, kinds)
}

// Base is the frozen, immutable state of one loaded database: the device
// arena plus the model's directory metadata. Opening a Base yields an
// independent database that reads through the shared arena and keeps its
// writes in a private copy-on-write overlay, so n open views cost one
// loaded extension plus only the pages each view actually dirties. Views
// are independent databases (each with its own engine and counters) and
// may be used from different goroutines; the Base itself is immutable and
// safe to share.
//
// The base storage is reference-counted: the Base handle holds one
// reference and every open view another, so Close releases the arena —
// including the snapshot file mapping where OpenBase mmap'ed it — only
// after the last view is closed too. Bases opened over one stored layout
// stand on one floor, each with generations of its own.
type Base struct {
	kind ModelKind
	base *store.SharedBase
}

// OpenBase lifts one storage model of a .codb snapshot into a shareable
// base, paying for the arena exactly once. Where the platform supports it
// (Linux) the snapshot's arena region is mmap'ed read-only in place
// instead of copied to the heap: views start with near-zero resident
// arena and fault base pages in on demand. The snapshot file must not be
// truncated or rewritten in place while the base or any of its views is
// open (atomically replacing it via WriteSnapshot is safe).
func OpenBase(path string, kind ModelKind) (*Base, error) {
	bases, err := OpenBases(path, []ModelKind{kind})
	if err != nil {
		return nil, err
	}
	return bases[0], nil
}

// OpenBases is OpenBase for several models at once, returning one Base
// per kind in kinds order; close every one. Each stored physical layout
// is mapped once per process, however it is reached: models the snapshot
// stores in one entry (DSM and DASDBS-DSM, NSM and NSM+index, when their
// bytes are equal) get bases of their own over the one mapping, and each
// commits alone — a commit through one never changes what another
// serves.
func OpenBases(path string, kinds []ModelKind) ([]*Base, error) {
	ks := make([]store.Kind, len(kinds))
	for i, k := range kinds {
		ks[i] = k.internal()
	}
	sbs, err := snapshot.OpenBases(path, ks)
	if err != nil {
		return nil, err
	}
	out := make([]*Base, len(kinds))
	for i, k := range kinds {
		out[i] = &Base{kind: k, base: sbs[i]}
	}
	return out, nil
}

// Freeze copies the database's current state into an immutable Base
// (flushing dirty pages as a side effect). The database keeps working;
// the Base never observes later changes.
func (db *DB) Freeze() (*Base, error) {
	b, err := store.Freeze(db.model)
	if err != nil {
		return nil, err
	}
	return &Base{kind: db.kind, base: b}, nil
}

// Kind returns the storage model the base holds.
func (b *Base) Kind() ModelKind { return b.kind }

// Owners returns the number of bases standing on the base's stored
// layout: 1, or more while other models of the layout are open over it.
func (b *Base) Owners() int { return b.base.Owners() }

// NumPages returns the number of frozen pages.
func (b *Base) NumPages() int { return b.base.NumPages() }

// ArenaBytes returns the size of the shared arena in bytes — paid once no
// matter how many views are open.
func (b *Base) ArenaBytes() int { return b.base.ArenaBytes() }

// Mapped reports whether the base arena is an mmap of the snapshot file
// (paged in on demand) rather than a heap copy. Commits keep it mapped:
// only the pages they dirtied move to the heap (DeltaPages).
func (b *Base) Mapped() bool { return b.base.Mapped() }

// DeltaPages returns the number of committed page images the current
// generation holds on the heap over the arena it was opened with (0
// until the first commit, at most NumPages).
func (b *Base) DeltaPages() int { return b.base.DeltaPages() }

// PromotedBytes returns the bytes commits have copied in memory to build
// new generations of this base — dirty page images, page tables,
// metadata blobs. Divided by the committed page payload it is the
// in-memory write amplification, the counterpart of
// CommitLogStats.AppendedBytes over PayloadBytes on disk. Not a paper
// counter.
func (b *Base) PromotedBytes() int64 { return b.base.PromotedBytes() }

// Close drops the Base handle's reference on the arena. Open views keep
// the arena alive until they are closed; opening new views after Close is
// a bug. Closing is what frees the arena: a frozen Base's arena lives
// outside the Go heap (no collector reclaims it), and a snapshot-mapped
// one must be unmapped before the snapshot file is rewritten in place.
func (b *Base) Close() error { return b.base.Release() }

// Open builds a database over a fresh copy-on-write view of the base.
// opts.CountIndexIO is rejected: counted indexes are for private
// databases (Open, OpenLoaded). The view starts with a cold cache and zeroed counters and measures
// bit-identically to a freshly loaded database.
func (b *Base) Open(opts Options) (*DB, error) {
	sv, err := b.storeView(opts.internal())
	if err != nil {
		return nil, err
	}
	return newDB(b.kind, sv.Model), nil
}

// SnapshotInfo describes a .codb snapshot file.
type SnapshotInfo struct {
	// Gen is the generator configuration the snapshot was built from.
	Gen cobench.Config
	// Models lists the stored storage models in file order.
	Models []ModelKind
	// PageSize is the device page size of the stored models.
	PageSize int
}

// StatSnapshot reads a snapshot file's header without restoring anything.
func StatSnapshot(path string) (SnapshotInfo, error) {
	info, err := snapshot.Stat(path)
	if err != nil {
		return SnapshotInfo{}, err
	}
	out := SnapshotInfo{Gen: info.Gen, PageSize: info.PageSize}
	for _, k := range info.Kinds {
		for _, mk := range AllModels() {
			if mk.internal() == k {
				out.Models = append(out.Models, mk)
			}
		}
	}
	return out, nil
}

// Load bulk-loads the given stations. Load may be called once; it leaves
// the cache cold and the statistics zeroed, so subsequent measurements
// exclude load-time I/O (the paper's convention).
func (db *DB) Load(stations []*cobench.Station) error {
	if err := db.model.Load(stations); err != nil {
		return err
	}
	if err := db.model.Engine().ColdCache(); err != nil {
		return err
	}
	db.model.Engine().ResetStats()
	return nil
}

// NumObjects returns the number of loaded objects.
func (db *DB) NumObjects() int { return db.model.NumObjects() }

// Everything a DB method returns or hands a callback is the caller's to
// keep. The storage models lend what they read (valid until their next
// call — the serving path keeps none of it and so allocates none of it);
// the facade copies it once, here.

// FetchByAddress retrieves a whole object by its physical address (the
// paper's query 1a). Pure NSM returns ErrNoAddressAccess.
func (db *DB) FetchByAddress(i int) (*cobench.Station, error) {
	return owned(db.model.FetchByAddress(i))
}

// owned copies a fetched Station for the caller to keep.
func owned(s *cobench.Station, err error) (*cobench.Station, error) {
	if err != nil {
		return nil, err
	}
	return s.Clone(), nil
}

// ErrNoAddressAccess reports that the storage model has no object
// addresses (pure NSM).
var ErrNoAddressAccess = store.ErrNoAddressAccess

// FetchByKey retrieves a whole object by a value selection on its key
// (query 1b): a physical scan of the root relation.
func (db *DB) FetchByKey(key int32) (*cobench.Station, error) {
	return owned(db.model.FetchByKey(key))
}

// ScanAll retrieves every object (query 1c). fn may read the database
// but not write it: UpdateRoots and UpdateObject from inside fn return
// ErrScanInProgress and change nothing.
func (db *DB) ScanAll(fn func(i int, s *cobench.Station) error) error {
	return db.model.ScanAll(func(i int, s *cobench.Station) error { return fn(i, s.Clone()) })
}

// Navigate reads the object's root record and the station indices its
// connections refer to, transferring only the pages the model needs.
func (db *DB) Navigate(i int) (cobench.RootRecord, []int32, error) {
	root, children, err := db.model.Navigate(i)
	root.Name = strings.Clone(root.Name)
	return root, slices.Clone(children), err
}

// ReadRoot reads just the root record of an object.
func (db *DB) ReadRoot(i int) (cobench.RootRecord, error) {
	root, err := db.model.ReadRoot(i)
	root.Name = strings.Clone(root.Name)
	return root, err
}

// UpdateRoots applies mutate to the root records of the given objects and
// writes them back through the model's update mechanism (whole-tuple
// replacement, in-place update, or DASDBS-DSM's write-through
// change-attribute operations).
func (db *DB) UpdateRoots(idxs []int32, mutate func(i int32, r *cobench.RootRecord)) error {
	return db.model.UpdateRoots(idxs, func(i int32, r *cobench.RootRecord) {
		r.Name = strings.Clone(r.Name)
		mutate(i, r)
	})
}

// UpdateObject applies an arbitrary — possibly structural — mutation to
// one object and stores the result. This goes beyond the paper's
// benchmark (whose updates never change the object structure): objects
// may grow or shrink, direct objects relocate when their page footprint
// changes, and normalized sub-tuples are deleted and reinserted. The
// NoPlatform/NoSeeing counters are refreshed automatically.
//
// A key selects one object: a mutation that moves the object onto a key
// another object holds fails with ErrDuplicateKey, before anything is
// written. To swap two keys, move one through a key nobody holds.
func (db *DB) UpdateObject(i int, mutate func(s *cobench.Station) error) error {
	return db.model.UpdateObject(i, mutate)
}

// ErrDuplicateKey reports an UpdateObject that would give an object a key
// another object holds.
var ErrDuplicateKey = store.ErrDuplicateKey

// ErrScanInProgress reports a write from inside a ScanAll callback.
var ErrScanInProgress = store.ErrScanInProgress

// Flush writes all deferred (dirty) pages back to disk, the paper's
// "database disconnect".
func (db *DB) Flush() error { return db.model.Flush() }

// ColdCache flushes and empties the buffer pool.
func (db *DB) ColdCache() error { return db.model.Engine().ColdCache() }

// Stats returns the accumulated I/O counters.
func (db *DB) Stats() Stats { return db.model.Engine().Stats() }

// ResetStats zeroes the I/O counters without touching the cache.
func (db *DB) ResetStats() { db.model.Engine().ResetStats() }

// RelationSize describes the physical layout of one stored relation, in
// the units of the paper's Table 2.
type RelationSize struct {
	Name            string
	TuplesPerObject float64
	Tuples          int
	AvgTupleBytes   float64
	TuplesPerPage   float64 // the paper's k (0 for large tuples)
	PagesPerTuple   float64 // the paper's p (0 for shared pages)
	Pages           int     // the paper's m
}

// Sizes reports the physical layout of every relation of the model.
func (db *DB) Sizes() []RelationSize {
	rep := db.model.Sizes()
	out := make([]RelationSize, 0, len(rep.Relations))
	for _, r := range rep.Relations {
		out = append(out, RelationSize{
			Name:            r.Name,
			TuplesPerObject: r.TuplesPerObject,
			Tuples:          r.Tuples,
			AvgTupleBytes:   r.AvgTupleBytes,
			TuplesPerPage:   r.K,
			PagesPerTuple:   r.P,
			Pages:           r.M,
		})
	}
	return out
}

// QueryResult is the outcome of running one benchmark query, normalized
// per unit (objects for query family 1, loops for families 2 and 3).
type QueryResult struct {
	Query     cobench.Query
	Model     ModelKind
	Supported bool
	Units     float64
	Raw       Stats

	// PerUnit holds the normalized counters (per object / per loop),
	// promoted: res.Pages, res.Calls, res.Fixes, ... Zero when the model
	// does not support the query.
	PerUnit

	// Elapsed is the wall-clock service time of the query execution,
	// measured inside the workload runner. Observability only: it feeds
	// the server's latency histograms and never any paper counter (a
	// served drive reconstructing results from the wire leaves it zero).
	Elapsed time.Duration
}

// Run executes one of the paper's benchmark queries against the database
// and returns its measurement. The cache is reset before the query, as in
// the experiment harness.
func (db *DB) Run(q cobench.Query, w cobench.Workload) (QueryResult, error) {
	return runQuery(nil, db.kind, db.run, q, w)
}

// runQuery is the one execution path every surface shares: batch
// databases (DB.Run), request-scoped views (View.Run/RunContext) and,
// through them, the benchmark server all drive a workload.Runner over the
// store.Model surface — which is what makes served counters
// bit-identical to the batch tables. r is the runner the database or the
// view's engine keeps, armed here for this query. A non-nil ctx bounds the
// query (the runner checks it between object visits); a nil ctx never
// interrupts.
func runQuery(ctx context.Context, kind ModelKind, r *workload.Runner, q cobench.Query, w cobench.Workload) (QueryResult, error) {
	res, err := r.Arm(ctx, w).Run(q)
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{
		Query:     res.Query,
		Model:     kind,
		Supported: res.Supported,
		Units:     res.Units,
		Raw:       res.Stats,
		PerUnit:   res.PerUnit(),
		Elapsed:   res.Elapsed,
	}, nil
}

// RunBenchmark executes all seven benchmark queries in paper order.
func (db *DB) RunBenchmark(w cobench.Workload) ([]QueryResult, error) {
	var out []QueryResult
	for _, q := range cobench.AllQueries() {
		r, err := db.Run(q, w)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ErrNotLoaded reports queries against an empty database.
var ErrNotLoaded = store.ErrNotLoaded
