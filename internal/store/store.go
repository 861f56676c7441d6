package store

import (
	"errors"
	"fmt"
	"slices"

	"complexobj/cobench"
	"complexobj/internal/buffer"
	"complexobj/internal/disk"
	"complexobj/internal/faultdisk"
	"complexobj/internal/iostat"
)

// Kind enumerates the storage models.
type Kind int

const (
	// DSM is the direct storage model (§3.1).
	DSM Kind = iota
	// DASDBSDSM is the direct model with header-directed partial access (§3.2).
	DASDBSDSM
	// NSM is the normalized storage model without any index (§3.3).
	NSM
	// NSMIndex is NSM supported by a (zero-cost, in-memory) index: "a page
	// is read then and only then if a tuple it stores is requested".
	NSMIndex
	// DASDBSNSM is the nested-normalized model with a transformation table (§3.4).
	DASDBSNSM
)

// String implements fmt.Stringer using the paper's names.
func (k Kind) String() string {
	switch k {
	case DSM:
		return "DSM"
	case DASDBSDSM:
		return "DASDBS-DSM"
	case NSM:
		return "NSM"
	case NSMIndex:
		return "NSM+index"
	case DASDBSNSM:
		return "DASDBS-NSM"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Layout returns the kind whose physical layout k's objects are stored
// in. DSM and DASDBS-DSM are one layout read with two access strategies
// (§3.1/§3.2: each station one clustered object with an object header),
// so DASDBS-DSM reports DSM. NSM and NSM+index are one layout too — the
// same four relations, the index being "a zero-cost in-memory index" over
// them (§3.3) — so NSM+index reports NSM. DASDBS-NSM has a layout of its
// own. A base loaded for one kind serves views of every kind with that
// layout (SharedBase.NewViewAs), and a .codb entry stores such kinds once.
func (k Kind) Layout() Kind {
	switch k {
	case DASDBSDSM:
		return DSM
	case NSMIndex:
		return NSM
	}
	return k
}

// AllKinds lists the storage models in the paper's order.
func AllKinds() []Kind { return []Kind{DSM, DASDBSDSM, NSM, NSMIndex, DASDBSNSM} }

// ErrNoAddressAccess reports that the model cannot fetch by address: "With
// NSM we have no identifiers ..., so query 1a is not relevant" (§4).
var ErrNoAddressAccess = errors.New("store: model has no address-based access")

// ErrNotLoaded reports use of a model before Load.
var ErrNotLoaded = errors.New("store: no database loaded")

// ErrBadObject reports an object index outside the loaded extension.
var ErrBadObject = errors.New("store: object index out of range")

// ErrDuplicateKey reports a key another object already holds: a key
// selects one object, so UpdateObject refuses to move an object onto it.
var ErrDuplicateKey = errors.New("store: key held by another object")

// ErrScanInProgress reports a write — UpdateRoots, UpdateObject, or a
// view's Commit, Recycle or Rebase — attempted from inside a ScanAll
// callback on the model being scanned: a scan reads the model as it
// streams, so the write is refused and changes nothing.
var ErrScanInProgress = errors.New("store: write while a scan of the model runs")

// Options configure the simulated installation.
type Options struct {
	// PageSize is the raw page size (default 2048, the DASDBS page).
	PageSize int
	// BufferPages is the cache capacity (default 1200 pages, §5.1).
	BufferPages int
	// Policy selects the replacement policy (default LRU).
	Policy buffer.Policy
	// CountIndexIO replaces the zero-cost in-memory indexes of the
	// indexed models with disk-resident B+-trees whose page accesses are
	// counted. The paper explicitly excludes index I/O ("we did not
	// account for additional I/Os needed ... to retrieve the tables with
	// addresses", §5.1); this option quantifies that accounting choice
	// (see experiments.IndexAblation). Only NSMIndex honours it: a
	// private engine builds the trees when it loads, a view of a base
	// into its own overlay when it opens (SharedBase.NewViewAs).
	CountIndexIO bool
	// Faults, when non-nil, wraps every backend opened through these
	// options in the injector's seeded fault schedule (transient and
	// permanent I/O errors, latency, short reads, torn writes). Injected
	// faults surface as errors and never alter the counters of
	// successful operations — the device counts only completed
	// transfers.
	Faults *faultdisk.Injector
	// Pages, when non-nil, is where the engine's frame buffers and overlay
	// images come from once its device's free list is empty and go to at
	// a clean Close, for the next engine opened with these options — a
	// batch cell's view, a loader — to reuse. The engine's scaffolding —
	// frame index and frames, overlay page table, the list's array — goes
	// the same way, as one scaffold. Whoever opens engines one after
	// another owns it (an experiments.Suite); served views pass none.
	Pages *disk.PagePool
	// Scans, when non-nil, lends NSM scans their staging, shared by every
	// engine opened with these options (ScanStages). A ViewPool owns one for
	// its views; an engine without one keeps its own, which goes with it.
	Scans *ScanStages
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = disk.DefaultPageSize
	}
	if o.BufferPages == 0 {
		o.BufferPages = 1200
	}
	return o
}

// Engine bundles one simulated device and its buffer pool.
type Engine struct {
	Dev   *disk.Disk
	Pool  *buffer.Pool
	opts  Options
	ints  []int // IntScratch
	scans int   // ScanAll calls running on the engine's model
}

// beginScan and endScan bracket a ScanAll: while one runs, a write is
// ErrScanInProgress (Model.ScanAll).
func (e *Engine) beginScan() { e.scans++ }
func (e *Engine) endScan()   { e.scans-- }

// writable refuses a write, named op, while a ScanAll of the engine's
// model runs.
func (e *Engine) writable(op string) error {
	if e.scans > 0 {
		return fmt.Errorf("%w: %s", ErrScanInProgress, op)
	}
	return nil
}

// NewEngine creates a device/pool pair over a fresh loader arena: the
// engine of a loader (LoadBase) or of a private database. An engine's
// backend follows from its role; a view's is a copy-on-write overlay
// (NewViewAs).
func NewEngine(o Options) (*Engine, error) { return newEngine(o, false) }

// newEngine creates an empty device/pool pair over a loader arena, or with
// cow over an empty copy-on-write overlay that RebaseView lands on a base.
func newEngine(o Options, cow bool) (*Engine, error) {
	o = o.withDefaults()
	if o.PageSize <= disk.SysHeaderSize {
		return nil, fmt.Errorf("store: page size %d not larger than the %d-byte system header", o.PageSize, disk.SysHeaderSize)
	}
	if o.BufferPages < 0 {
		return nil, fmt.Errorf("store: negative buffer capacity %d", o.BufferPages)
	}
	var b disk.Backend
	if cow {
		b = disk.NewCOWBackend(nil, o.PageSize)
	} else {
		b = disk.NewMemBackend()
	}
	if o.Faults != nil {
		b = o.Faults.Wrap(b, o.PageSize)
	}
	dev := disk.NewWithBackend(o.PageSize, b)
	dev.SetPagePool(o.Pages)
	return &Engine{Dev: dev, Pool: buffer.New(dev, o.BufferPages, o.Policy), opts: o}, nil
}

// IntScratch returns n ints of scratch living with the engine, for its
// one driver: valid until the next call, contents unspecified.
func (e *Engine) IntScratch(n int) []int {
	if poison { // whoever kept the previous scratch reads -1, even if the array moves
		fillInts(e.ints[:cap(e.ints)], -1)
	}
	e.ints = slices.Grow(e.ints[:0], n)[:n]
	if poison {
		fillInts(e.ints, -1)
	}
	return e.ints
}

func fillInts(s []int, v int) {
	for i := range s {
		s[i] = v
	}
}

// Close flushes all dirty pages and releases the device backend (a view
// drops its overlay and its reference on the base arena). The engine must
// not be used afterwards. An engine that ends clean — everything flushed,
// no frame left pinned — gives its page buffers to Options.Pages; one that
// does not gives none.
func (e *Engine) Close() error {
	flushErr := e.Pool.FlushAll()
	if flushErr == nil {
		_ = e.Pool.Release() // fails on a frame still pinned: then the pages stay the GC's
	}
	if err := e.Dev.Close(); err != nil {
		return err
	}
	return flushErr
}

// Stats combines device and pool counters into one snapshot.
func (e *Engine) Stats() iostat.Stats {
	s := e.Dev.Stats()
	s.BufferFixes = e.Pool.Fixes()
	s.BufferHits = e.Pool.Hits()
	return s
}

// ResetStats zeroes all counters (cache contents are untouched).
func (e *Engine) ResetStats() {
	e.Dev.ResetStats()
	e.Pool.ResetStats()
}

// ColdCache flushes and empties the pool, so the next query starts cold.
func (e *Engine) ColdCache() error { return e.Pool.Reset() }

// Flush writes all dirty pages back ("database disconnect").
func (e *Engine) Flush() error { return e.Pool.FlushAll() }

// RelationSize describes one stored relation for Table 2.
type RelationSize struct {
	// Name of the relation (e.g. "NSM_Connection").
	Name string
	// TuplesPerObject is the average number of tuples one complex object
	// contributes.
	TuplesPerObject float64
	// Tuples is the total tuple count.
	Tuples int
	// AvgTupleBytes is the paper's S_tuple.
	AvgTupleBytes float64
	// K is tuples per page for page-sharing relations (0 when tuples span
	// pages).
	K float64
	// P is pages per tuple for large tuples (0 when tuples share pages).
	P float64
	// M is the total number of pages, the paper's m.
	M int
}

// SizeReport is a model's physical size summary (Table 2).
type SizeReport struct {
	Model     string
	Relations []RelationSize
}

// Model is the query surface of a storage model: the one interface every
// execution path drives — workload.Runner over a private model
// (complexobj.DB, the tests' oracle) or over a View of a shared base (the
// experiments suite, the benchmark server), so a served request and a
// batch table cell run the same code and count the same I/O. Object
// identity is the station index (0..N-1); the distinction between "by
// address" (1a) and "by key value" (1b) access is which physical path the
// model takes, mirroring the paper's accounting where address tables are
// in-memory and free (§5.1).
//
// Every read lends its result (doc.go, "Assembly"): the Stations of
// FetchByAddress, FetchByKey and a ScanAll callback, the RootRecord.Name of
// Navigate, ReadRoot and UpdateRoots' mutate, and Navigate's child list
// live in the model's own scratch and are valid until its next call — a
// caller that keeps one copies it (Station.Clone, strings.Clone,
// slices.Clone). Only the Station UpdateObject hands mutate is owned.
type Model interface {
	// Kind returns the model identity.
	Kind() Kind
	// Engine returns the underlying engine (for statistics and cache
	// control).
	Engine() *Engine
	// Load bulk-loads a generated extension. It must be called exactly
	// once; the harness resets statistics afterwards.
	Load(stations []*cobench.Station) error
	// NumObjects returns the extension size.
	NumObjects() int
	// FetchByAddress retrieves one whole object by its physical address
	// (query 1a). Models without addresses return ErrNoAddressAccess. The
	// Station is lent: valid until the model's next call.
	FetchByAddress(i int) (*cobench.Station, error)
	// FetchByKey retrieves one whole object by a value selection on its
	// key (query 1b): a physical scan of the root relation (plus whatever
	// the model needs to assemble the rest). The Station is lent.
	FetchByKey(key int32) (*cobench.Station, error)
	// ScanAll retrieves every object (query 1c), each materialised in full
	// into one Station that is lent to fn: valid until fn returns, then
	// overwritten by the next object. fn runs with no page of the scan
	// fixed, so it may read the model (a fetch of its own takes a frame),
	// but it must not write it: UpdateRoots and UpdateObject from inside
	// fn — and a view's Commit, Recycle and Rebase — return
	// ErrScanInProgress and change nothing, on every model. (Objects are
	// read as the scan reaches them, so a write could move what the scan
	// has yet to read.) An error from fn ends the scan with it.
	ScanAll(fn func(i int, s *cobench.Station) error) error
	// Navigate reads the object's root record and the identifiers of its
	// children, touching only the attributes needed (query 2 inner step).
	// The record's Name and the list (nil for a childless object) are
	// lent: valid until the model's next call.
	Navigate(i int) (cobench.RootRecord, []int32, error)
	// ReadRoot inputs just the root record of an object (query 2's
	// grand-children step). Its Name is lent: valid until the next call.
	ReadRoot(i int) (cobench.RootRecord, error)
	// UpdateRoots applies mutate to the root records of the given objects
	// and writes them back using the model's update mechanism (query 3).
	// The Name mutate finds in r is lent for the duration of that call,
	// and a Name mutate stores must stay valid only until UpdateRoots
	// returns: each record is encoded before the next mutate call.
	UpdateRoots(idxs []int32, mutate func(i int32, r *cobench.RootRecord)) error
	// UpdateObject applies an arbitrary (structural) mutation to one
	// object and stores the result — an extension beyond the paper's
	// benchmark, whose updates never change the object structure (§2.2).
	// Objects may grow or shrink; direct objects relocate when their page
	// footprint changes, normalized sub-tuples are deleted and reinserted.
	// A mutation onto a key another object holds is ErrDuplicateKey,
	// returned before anything is written.
	UpdateObject(i int, mutate func(s *cobench.Station) error) error
	// Flush forces deferred writes out (end of query / disconnect).
	Flush() error
	// Sizes reports the physical layout for Table 2.
	Sizes() SizeReport
	// SnapshotMeta serializes the model's directory metadata — address
	// tables, heap/long-object directories, per-relation accounting —
	// so that a snapshot of the device arena plus this blob restores the
	// loaded model without regenerating and reloading the extension.
	SnapshotMeta() ([]byte, error)
	// RestoreMeta rebuilds the directory metadata from SnapshotMeta
	// output into a fresh model (unusable if it fails) without reading a
	// page: a base generation built from a blob decodes it once, with no
	// device.
	RestoreMeta(meta []byte) error
	// attach makes the model's directory that of dir, a model of the same
	// layout whose tables nothing writes any more (a generation's, or a
	// loader's a base takes over), in O(1): the tables are shared, and
	// whatever writes one (UpdateObject, heap and long-object state) copies
	// it first.
	attach(dir Model)
	// dirChanged reports whether the directory may have left the one last
	// attached (always, on a model that loaded its own).
	dirChanged() bool
}

// New constructs a model of the given kind over a fresh engine.
func New(k Kind, o Options) (Model, error) {
	e, err := NewEngine(o)
	if err != nil {
		return nil, err
	}
	return NewWithEngine(k, e), nil
}

// NewWithEngine constructs a model over an existing (empty) engine; the
// engine's options supply the model knobs. This is how a view lands on
// a base: the device is rebased onto the frozen arena, then the model
// attaches to the generation's directory tables.
func NewWithEngine(k Kind, e *Engine) Model {
	switch k {
	case DSM:
		return newDirect(e, false)
	case DASDBSDSM:
		return newDirect(e, true)
	case NSM:
		return newNSM(e, false)
	case NSMIndex:
		m := newNSM(e, true)
		m.countIndexIO = e.opts.CountIndexIO
		return m
	case DASDBSNSM:
		return newDNSM(e)
	default:
		panic(fmt.Sprintf("store: unknown kind %d", int(k)))
	}
}

// checkIndex validates an object index against the loaded extension.
func checkIndex(i, n int) error {
	if n == 0 {
		return ErrNotLoaded
	}
	if i < 0 || i >= n {
		return fmt.Errorf("%w: %d of %d", ErrBadObject, i, n)
	}
	return nil
}

// checkKey refuses to give object i a key another object holds. Every
// UpdateObject calls it after mutate and before it encodes or writes
// anything, so a refusal leaves pages and tables as they were.
func checkKey(keyIdx map[int32]int, i int, key int32) error {
	if j, held := keyIdx[key]; held && j != i {
		return fmt.Errorf("%w: object %d holds key %d", ErrDuplicateKey, j, key)
	}
	return nil
}
