package workload

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"complexobj/cobench"
	"complexobj/internal/iostat"
	"complexobj/internal/store"
	"complexobj/internal/xrand"
	"complexobj/nf2"
)

// Result is the outcome of one query execution.
type Result struct {
	Query cobench.Query
	Model store.Kind
	// Supported is false when the model cannot run the query (pure NSM has
	// no address access, so query 1a "is not relevant").
	Supported bool
	// Units is the normalization divisor: objects for 1a-1c, loops for 2-3.
	Units float64
	// Stats holds the raw counters accumulated over the whole query.
	Stats iostat.Stats
	// Touched counts object visits during navigation (roots + children +
	// grand-children, including repeats), for diagnostics.
	Touched int64
	// Elapsed is the wall-clock service time of the query execution
	// itself, measured inside the runner (cache reset through final
	// flush) — the timing hook the serving path's latency metrics read.
	// Pure observability: it reflects no I/O accounting and never feeds a
	// paper counter (those compare Stats only).
	Elapsed time.Duration
}

// PerUnit returns the normalized counters (the numbers printed in the
// paper's tables).
func (r Result) PerUnit() iostat.PerUnit {
	if !r.Supported || r.Units == 0 {
		return iostat.PerUnit{}
	}
	return r.Stats.Normalize(r.Units)
}

// View is the execution surface a Runner drives: the query operations of
// a storage model plus the engine hooks for cache control and statistics.
// It is the narrow waist shared by every execution path — a full
// store.Model (the batch tables), a recyclable store.View over a frozen
// base (the benchmark server), and anything else that can answer the
// paper's queries. A Runner never loads, snapshots or restructures; a
// request-scoped handle therefore only has to provide the read/navigate/
// update operations below to measure bit-identically to a private model.
//
// Every read lends, as in store.Model: the Stations of FetchByAddress,
// FetchByKey and a ScanAll callback, the RootRecord.Name of Navigate /
// ReadRoot / UpdateRoots' mutate and Navigate's child list are valid
// until the view's next call, and are copied (Station.Clone,
// strings.Clone, slices.Clone) by a caller that keeps them. The Runner
// keeps none but the child lists it walks.
type View interface {
	// Kind returns the storage-model identity (for result rows).
	Kind() store.Kind
	// Engine exposes cache control and the I/O counters.
	Engine() *store.Engine
	// NumObjects returns the extension size.
	NumObjects() int
	// FetchByAddress retrieves one whole object by address (query 1a);
	// the Station is lent.
	FetchByAddress(i int) (*cobench.Station, error)
	// FetchByKey retrieves one whole object by key selection (query 1b);
	// the Station is lent.
	FetchByKey(key int32) (*cobench.Station, error)
	// ScanAll retrieves every object (query 1c); s is lent.
	ScanAll(fn func(i int, s *cobench.Station) error) error
	// Navigate reads a root record and its children's identifiers (2/3);
	// the name and the list are lent.
	Navigate(i int) (cobench.RootRecord, []int32, error)
	// ReadRoot inputs just the root record of an object; the name is lent.
	ReadRoot(i int) (cobench.RootRecord, error)
	// UpdateRoots applies mutate to root records and writes them back (3).
	// A Name mutate stores must stay valid only until UpdateRoots returns.
	UpdateRoots(idxs []int32, mutate func(i int32, r *cobench.RootRecord)) error
	// Flush forces deferred writes out (end of an update query).
	Flush() error
}

// Runner executes queries against one loaded view. Arm sets the workload
// and context of the queries that follow; everything else — the child
// lists a loop copies, the update stamp's scratch — is kept from query to
// query, grown to what this view's queries need. A runner therefore
// belongs with the engine it drives, one per engine for the engine's life,
// not one per request.
type Runner struct {
	model View
	w     cobench.Workload
	ctx   context.Context
	// children and grand are loop's copies of what Navigate lends: the
	// view's child list is overwritten by the next Navigate.
	children, grand []int32
	// The update queries' mutate, bound by the first loop that updates, with
	// the loop it stamps, the scratch it formats into and the arena its
	// stamps are cut from: Reset before each UpdateRoots call, since a
	// model encodes a stamp before that call returns.
	mutate func(i int32, rec *cobench.RootRecord)
	stamp  int
	name   []byte
	names  nf2.Strings
}

// NewRunner wraps a loaded view with workload parameters. store.Model is
// a superset of the View interface, so batch callers pass models directly.
func NewRunner(m View, w cobench.Workload) *Runner {
	return &Runner{model: m, w: w}
}

// stampRoot updates atomic attributes without changing the object structure
// (§2.2): it overwrites the name with "upd <loop> #<object>", a value of
// unchanged encoded size (STR attributes are fixed-capacity).
func (r *Runner) stampRoot(i int32, rec *cobench.RootRecord) {
	b := append(r.name[:0], "upd "...)
	b = strconv.AppendInt(b, int64(r.stamp), 10)
	b = append(b, " #"...)
	r.name = strconv.AppendInt(b, int64(i), 10)
	rec.Name = r.names.Add(r.name)
}

// Arm sets what the runner's next queries run with: workload parameters w,
// bounded by ctx. Execution checks the context between object visits (per
// sample, per scanned object, per navigation loop) and stops with the
// context's error, so a deadlined or canceled request releases its view
// promptly instead of finishing a long scan nobody is waiting for. A nil
// context (the default) never interrupts. The check granularity is an
// object, not a page — a query interrupted mid-object has still performed
// whole page transfers, which is why interrupted runs report no counters
// at all rather than a truncated measurement.
func (r *Runner) Arm(ctx context.Context, w cobench.Workload) *Runner {
	r.ctx, r.w = ctx, w
	return r
}

// interrupted reports the context's error once the runner's context is
// done (nil context: never).
func (r *Runner) interrupted() error {
	if r.ctx == nil {
		return nil
	}
	if err := r.ctx.Err(); err != nil {
		return fmt.Errorf("workload: interrupted: %w", err)
	}
	return nil
}

// Run executes one benchmark query and returns its measurement, with
// Result.Elapsed stamped around the execution (the timing hook of the
// observability layer — timing never alters the I/O counters).
func (r *Runner) Run(q cobench.Query) (Result, error) {
	if r.model.NumObjects() == 0 {
		return Result{}, store.ErrNotLoaded
	}
	start := time.Now()
	res, err := r.run(q)
	if err != nil {
		return res, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

func (r *Runner) run(q cobench.Query) (Result, error) {
	switch q {
	case cobench.Q1a:
		return r.runQ1a()
	case cobench.Q1b:
		return r.runQ1b()
	case cobench.Q1c:
		return r.runQ1c()
	case cobench.Q2a:
		return r.runNav(cobench.Q2a, false)
	case cobench.Q3a:
		return r.runNav(cobench.Q3a, true)
	case cobench.Q2b:
		return r.runLoops(cobench.Q2b, false)
	case cobench.Q3b:
		return r.runLoops(cobench.Q3b, true)
	default:
		return Result{}, fmt.Errorf("workload: unknown query %v", q)
	}
}

// samples returns up to w.Samples distinct object indices, deterministic
// per (seed, query): a prefix of one full permutation, drawn into scratch
// that lives with the engine (valid until the engine's next query), so a
// pooled view serving its second request allocates none.
func (r *Runner) samples(q cobench.Query) []int {
	n := r.model.NumObjects()
	k := r.w.Samples
	if k <= 0 || k > n {
		k = n
	}
	rng := xrand.New(xrand.Mix(r.w.Seed, uint64(q)))
	perm := r.model.Engine().IntScratch(n)
	rng.PermInto(perm)
	return perm[:k]
}

// begin resets cache and statistics for a fresh measurement.
func (r *Runner) begin() error {
	if err := r.model.Engine().ColdCache(); err != nil {
		return err
	}
	r.model.Engine().ResetStats()
	return nil
}

func (r *Runner) result(q cobench.Query, units float64, touched int64) Result {
	return Result{
		Query:     q,
		Model:     r.model.Kind(),
		Supported: true,
		Units:     units,
		Stats:     r.model.Engine().Stats(),
		Touched:   touched,
	}
}

func (r *Runner) runQ1a() (Result, error) {
	if r.model.Kind() == store.NSM {
		return Result{Query: cobench.Q1a, Model: store.NSM, Supported: false}, nil
	}
	idxs := r.samples(cobench.Q1a)
	if err := r.begin(); err != nil {
		return Result{}, err
	}
	for _, i := range idxs {
		if err := r.interrupted(); err != nil {
			return Result{}, err
		}
		if _, err := r.model.FetchByAddress(i); err != nil {
			return Result{}, err
		}
		// Each retrieval is an independent cold-cache measurement, but the
		// statistics accumulate.
		if err := r.model.Engine().ColdCache(); err != nil {
			return Result{}, err
		}
	}
	return r.result(cobench.Q1a, float64(len(idxs)), int64(len(idxs))), nil
}

func (r *Runner) runQ1b() (Result, error) {
	idxs := r.samples(cobench.Q1b)
	// Value scans are expensive; a handful of repetitions is enough for a
	// stable average.
	if len(idxs) > 5 {
		idxs = idxs[:5]
	}
	if err := r.begin(); err != nil {
		return Result{}, err
	}
	for _, i := range idxs {
		if err := r.interrupted(); err != nil {
			return Result{}, err
		}
		if _, err := r.model.FetchByKey(cobench.KeyOf(i)); err != nil {
			return Result{}, err
		}
		if err := r.model.Engine().ColdCache(); err != nil {
			return Result{}, err
		}
	}
	return r.result(cobench.Q1b, float64(len(idxs)), int64(len(idxs))), nil
}

func (r *Runner) runQ1c() (Result, error) {
	if err := r.begin(); err != nil {
		return Result{}, err
	}
	count := 0
	err := r.model.ScanAll(func(int, *cobench.Station) error {
		if err := r.interrupted(); err != nil {
			return err
		}
		count++
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return r.result(cobench.Q1c, float64(count), int64(count)), nil
}

// loop performs one navigation loop from root: fetch the root's needed
// attributes, fetch its children, fetch the root records of the
// grand-children; with update=true the grand-children root records are then
// updated as one batch.
func (r *Runner) loop(root int, stamp int, update bool) (touched int64, err error) {
	_, kids, err := r.model.Navigate(root)
	if err != nil {
		return 0, err
	}
	touched = 1
	r.children = append(r.children[:0], kids...)
	grand := r.grand[:0]
	for _, c := range r.children {
		_, kids, err := r.model.Navigate(int(c))
		if err != nil {
			return 0, err
		}
		touched++
		grand = append(grand, kids...)
	}
	r.grand = grand
	for _, g := range grand {
		if _, err := r.model.ReadRoot(int(g)); err != nil {
			return 0, err
		}
		touched++
	}
	if update && len(grand) > 0 {
		if r.mutate == nil {
			r.mutate = r.stampRoot
		}
		r.stamp = stamp
		r.names.Reset()
		if err := r.model.UpdateRoots(grand, r.mutate); err != nil {
			return 0, err
		}
	}
	return touched, nil
}

func (r *Runner) runNav(q cobench.Query, update bool) (Result, error) {
	idxs := r.samples(q)
	if err := r.begin(); err != nil {
		return Result{}, err
	}
	var touched int64
	for s, root := range idxs {
		if err := r.interrupted(); err != nil {
			return Result{}, err
		}
		tc, err := r.loop(root, s, update)
		if err != nil {
			return Result{}, err
		}
		touched += tc
		if update {
			// End of query: flush ("query execution has been finished").
			if err := r.model.Flush(); err != nil {
				return Result{}, err
			}
		}
		if err := r.model.Engine().ColdCache(); err != nil {
			return Result{}, err
		}
	}
	return r.result(q, float64(len(idxs)), touched), nil
}

func (r *Runner) runLoops(q cobench.Query, update bool) (Result, error) {
	loops := r.w.Loops
	if loops <= 0 {
		loops = cobench.LoopsFor(r.model.NumObjects())
	}
	rng := xrand.New(xrand.Mix(r.w.Seed, uint64(q)+100))
	if err := r.begin(); err != nil {
		return Result{}, err
	}
	var touched int64
	for l := 0; l < loops; l++ {
		if err := r.interrupted(); err != nil {
			return Result{}, err
		}
		root := rng.Intn(r.model.NumObjects())
		tc, err := r.loop(root, l, update)
		if err != nil {
			return Result{}, err
		}
		touched += tc
	}
	if update {
		if err := r.model.Flush(); err != nil {
			return Result{}, err
		}
	}
	return r.result(q, float64(loops), touched), nil
}
