// Package experiments regenerates every table and figure of the paper's
// evaluation: the analytical estimates of Table 3, the measured physical
// page I/Os, I/O calls and buffer fixes of Tables 4-6, the data-skew
// comparison of Table 7, the qualitative ranking of Table 8, the
// object-size sweep of Figure 5 and the database-size/cache sweep of
// Figure 6.
//
// There is one way to a loaded model. Every measured cell — the matrix,
// Figures 5/6, the buffer sweep, Table 7, the policy and index ablations,
// the layout sizes behind Table 2 — asks the suite's base cache for the
// frozen base of its (physical layout, generator configuration), opens a
// copy-on-write view of its own kind over it, runs, and closes the view:
// the first cell to need a base loads it once (or maps it from the
// configured snapshot), every other cell shares it, and a cell's memory is
// the pages it dirties (the index ablation's counted view adds its
// B+-trees to those). The five models have three physical layouts
// (store.Kind.Layout: DSM and DASDBS-DSM share one, NSM and NSM+index
// another), so a configuration costs three bases, not five. Every
// experiment is a fan-out over such cells; Config.Workers is only the
// fan-out's width. Measure is that cell method for the suite's own
// configuration, open to callers outside the package (cobench's local
// table).
//
// A Suite holds what it derives through one build-once cache (cache.go),
// in two instances: the generated extensions, keyed by generator
// configuration, and the frozen bases, keyed by (physical layout,
// generator configuration). Entries have one of two lifetimes. The
// suite's own configuration is pinned: its extension and bases are built
// at most once and live until Close, because later experiments come back
// for them. Any other configuration (a Figure 5 or 6 column, the skew
// extension) is held by the cells that use it and dropped, extension and
// bases, when the last of them lets go, so a sweep's memory tracks the
// cells in flight, not the number of configurations swept. A sweep
// point's extension is held across all of its layout groups (Figure 5 and
// Table 7 hold theirs for the whole experiment, pointHold Figure 6's), so
// a whole reproduction generates each configuration once at any width.
// The one configuration needed again after its last holder let go is the
// skewed extension: the distribution ablation regenerates it, with its
// DSM base, after Table 7 dropped them, because holding them across
// sections would raise the suite's peak. A dropped extension's memory —
// its strings, its arrays and its Station array — returns to the suite's
// free list (cobench.FreeList), not to the collector, and the next
// extension the suite generates is cut from it: a reproduction allocates
// its own extension and the most one-off extensions it holds at once
// (Figure 5's two other columns), not every one it generates. A loaded
// base's arena is not on the Go heap (internal/disk, "Reservation and
// hand-off"): a one-off base's memory goes back to the operating system
// the moment its last cell releases it, not at a later collection, and
// the pinned bases do not raise the collector's heap goal. Nor are the
// page buffers of the suite's one page pool, under every view and loader:
// the pool cuts them from chunks it maps (internal/disk, "Page buffer
// ownership"), and every engine gives its pages back at its close. Close frees the rest, bases
// and chunks, and drops every extension, the pinned one included;
// disk.LiveArenaBytes counts what is live. The suite also keeps every
// computed result, so asking for several tables runs the expensive work
// once. All runs are deterministic for a given configuration, whatever
// the width.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"complexobj/cobench"
	"complexobj/internal/buffer"
	"complexobj/internal/disk"
	"complexobj/internal/fanout"
	"complexobj/internal/faultdisk"
	"complexobj/internal/iostat"
	"complexobj/internal/snapshot"
	"complexobj/internal/store"
	"complexobj/internal/workload"
)

// Config parameterizes a reproduction run.
type Config struct {
	// Gen is the benchmark extension configuration (default: the paper's
	// 1500-station extension).
	Gen cobench.Config
	// Workload holds loop and sample counts (default: 300 loops).
	Workload cobench.Workload
	// BufferPages is the cache size (default 1200 pages, §5.1).
	BufferPages int
	// UseClock switches the buffer replacement policy from LRU to Clock
	// (an ablation; the paper does not name DASDBS's policy).
	UseClock bool
	// Workers is the width of every fan-out: how many cells of the matrix
	// or of a sweep (Figures 5/6, the buffer sweep, Table 7) are measured
	// concurrently. 0 means GOMAXPROCS; 1 runs the same cells one after
	// another. Cells share only immutable bases — each owns its view
	// (overlay, buffer pool, counters) — so the measured counters do not
	// depend on the width.
	Workers int
	// Backend is ignored.
	//
	// Deprecated: there is one execution path (copy-on-write views of
	// cached frozen bases) and nothing left to select. The field remains
	// only until the benchmark harness stops setting it.
	Backend string
	// Snapshot is the path of a cogen-built .codb snapshot. When set, the
	// bases of the suite's own extension are the snapshot's arena regions,
	// mapped read-only in place (one mapping per physical layout, shared by
	// every view, paged in on demand; a heap copy where the platform
	// cannot map), instead of being generated and loaded; the snapshot's
	// stored generator configuration must match Gen. Sweeps that need
	// non-default extensions still generate.
	Snapshot string
	// Faults is an optional seeded fault-injection schedule (the
	// faultdisk grammar, e.g. "seed=7,read=0.02") armed under every
	// engine the suite builds. Injected faults surface as errors from the
	// experiments and never alter the counters of runs that complete, so
	// tables produced under a transient-only schedule are byte-identical
	// to the fault-free tables — the resilience property the chaos tests
	// pin.
	Faults string
}

// DefaultConfig mirrors the paper's installation.
func DefaultConfig() Config {
	return Config{
		Gen:         cobench.DefaultConfig(),
		Workload:    cobench.DefaultWorkload(),
		BufferPages: 1200,
	}
}

// Suite caches everything derived from one configuration. A Suite is not
// safe for concurrent use; run one experiment at a time (they are
// deterministic and order-independent).
type Suite struct {
	cfg         Config
	storeOpts   store.Options
	optsErr     error
	snapshotOK  func() error
	extMem      cobench.FreeList // the memory of the extensions exts drops, for the next
	exts        *cache[cobench.Config, *cobench.Extension]
	bases       *cache[baseKey, *store.SharedBase]
	sizes       map[store.Kind]store.SizeReport
	matrix      *Matrix
	fig5        []Fig5Cell
	fig6        []Fig6Point
	table7      []SkewRow
	bufferSweep []BufferPoint
}

// New creates a suite for the given configuration.
func New(cfg Config) *Suite {
	if cfg.Gen.N == 0 {
		cfg.Gen = cobench.DefaultConfig()
	}
	if cfg.Workload.Loops == 0 && cfg.Workload.Samples == 0 {
		cfg.Workload = cobench.DefaultWorkload()
	}
	if cfg.BufferPages == 0 {
		cfg.BufferPages = 1200
	}
	s := &Suite{
		cfg:   cfg,
		sizes: make(map[store.Kind]store.SizeReport),
		bases: newCache[baseKey]((*store.SharedBase).Release),
	}
	s.exts = newCache[cobench.Config](func(e *cobench.Extension) error {
		e.Release()
		return nil
	})
	s.snapshotOK = sync.OnceValue(s.checkSnapshot)
	// One page pool under every view and loader of the suite: a cell's frame
	// buffers and overlay images serve the next cell instead of the GC.
	s.storeOpts = store.Options{BufferPages: cfg.BufferPages, Pages: disk.NewPagePool()}
	if cfg.UseClock {
		s.storeOpts.Policy = buffer.Clock
	}
	if cfg.Faults != "" {
		var spec faultdisk.Spec
		if spec, s.optsErr = faultdisk.ParseSpec(cfg.Faults); s.optsErr == nil {
			// One injector for the whole suite: every engine gets its own
			// deterministic schedule stream from it, and the counters
			// accumulate across all experiments.
			s.storeOpts.Faults = faultdisk.New(spec)
		}
	}
	return s
}

// Close drops the cached bases (heap bases and snapshot file mappings)
// and extensions, and empties the page pool — the scaffolding closed
// engines left there, and the chunks its page buffers were cut from — so
// a closed suite pins no memory. A page an engine never gave back (one
// that failed) keeps the chunks mapped, and Close reports it. The suite
// must not be used afterwards.
func (s *Suite) Close() error {
	return errors.Join(s.bases.close(), s.exts.close(), s.storeOpts.Pages.Drain())
}

func (s *Suite) storeOptions() (store.Options, error) {
	return s.storeOpts, s.optsErr
}

// workers resolves the fan-out width shared by the matrix and the sweeps.
func (s *Suite) workers() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// checkSnapshot validates that the configured snapshot holds the
// extension the suite is asked to measure. The suite
// runs it once, as snapshotOK, from whichever base build needs it first.
func (s *Suite) checkSnapshot() error {
	info, err := snapshot.Stat(s.cfg.Snapshot)
	if err != nil {
		return fmt.Errorf("experiments: snapshot: %w", err)
	}
	if info.Gen != s.cfg.Gen {
		return fmt.Errorf("experiments: snapshot %s was built from %+v, configuration wants %+v",
			s.cfg.Snapshot, info.Gen, s.cfg.Gen)
	}
	return nil
}

// baseKey identifies one frozen database state: a physical layout loaded
// from one generator configuration. Two cells with equal keys measure,
// by the determinism of the generator and the loaders, the same physical
// database, so both get copy-on-write views of one base.
type baseKey struct {
	layout store.Kind
	gen    cobench.Config
}

// withBase runs fn on the frozen base holding k's physical layout of gen
// — the single acquisition point of every experiment, so e.g. the
// Figure 5 default-sightseeing column and the whole buffer sweep reuse the
// bases the matrix loaded, and DSM and DASDBS-DSM, one layout read two
// ways, share one base, as do NSM and NSM+index (callers open it with
// NewViewAs). The base is the
// snapshot's arena when the suite has one and gen is its own
// configuration, and otherwise a load of gen's extension.
//
// withBase holds the base and the extension until fn returns, so
// concurrent cells of a one-off configuration share one generation and
// one base, dropped with the last of them (the lifetimes are in the
// package comment). Cells call this from fan-out workers.
func (s *Suite) withBase(k store.Kind, gen cobench.Config, fn func(*store.SharedBase) error) error {
	own := gen == s.cfg.Gen
	var stations []*cobench.Station
	if !own || s.cfg.Snapshot == "" {
		st, release, err := s.extension(gen)
		if err != nil {
			return err
		}
		defer release()
		stations = st
	}
	layout := k.Layout()
	base, release, err := s.bases.get(baseKey{layout, gen}, own, func() (*store.SharedBase, error) {
		if stations != nil {
			return store.LoadBase(layout, s.storeOpts, stations)
		}
		if err := s.snapshotOK(); err != nil {
			return nil, err
		}
		return snapshot.OpenBase(s.cfg.Snapshot, layout)
	})
	if err != nil {
		return err
	}
	err = fn(base)
	if rerr := release(); err == nil {
		err = rerr
	}
	return err
}

// extension returns gen's generated extension, shared read-only, and a
// release for the caller to call once it no longer needs it. The suite's
// own extension is generated at most once and kept; any other lives while
// a caller holds it.
func (s *Suite) extension(gen cobench.Config) ([]*cobench.Station, func() error, error) {
	e, release, err := s.exts.get(gen, gen == s.cfg.Gen, func() (*cobench.Extension, error) {
		e, err := s.extMem.Generate(gen)
		if err != nil {
			return nil, fmt.Errorf("experiments: generate: %w", err)
		}
		return e, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return e.Stations, release, nil
}

// pointHold keeps each sweep point's extension live from the start of the
// first of the point's layout groups to the end of the last, so a group
// that starts after its sibling let go — always, at width 1 — does not
// generate it again. Figure 6 uses it; Figure 5 and Table 7 hold their
// extensions for the whole experiment instead.
type pointHold struct {
	s    *Suite
	mu   sync.Mutex
	left []int            // layout groups of each point still to finish
	held [][]func() error // the releases of each point's finished groups
}

func (s *Suite) newPointHold(points, groups int) *pointHold {
	h := &pointHold{s: s, left: make([]int, points), held: make([][]func() error, points)}
	for i := range h.left {
		h.left[i] = groups
	}
	return h
}

// group runs fn, one layout group of point i over gen, holding gen's
// extension until the point's last group is done. The suite's own is
// pinned and, over a snapshot, never generated, so it is not asked for.
func (h *pointHold) group(i int, gen cobench.Config, fn func() error) error {
	release := noRelease
	if gen != h.s.cfg.Gen {
		_, r, err := h.s.extension(gen)
		if err != nil {
			return err
		}
		release = r
	}
	err := fn()
	h.mu.Lock()
	h.held[i] = append(h.held[i], release)
	h.left[i]--
	last := h.held[i]
	if h.left[i] > 0 {
		last = nil
	} else {
		h.held[i] = nil
	}
	h.mu.Unlock()
	for _, r := range last {
		r() // cannot fail: dropping an extension only gives its memory back
	}
	return err
}

// close releases what the points of a failed fan-out still hold, once the
// fan-out has returned.
func (h *pointHold) close() {
	for _, held := range h.held {
		for _, r := range held {
			r()
		}
	}
}

// ExtensionStats describes the generated extension (realised averages,
// reported alongside Table 4 in §5.1).
func (s *Suite) ExtensionStats() (cobench.Stats, error) {
	stations, release, err := s.extension(s.cfg.Gen)
	if err != nil {
		return cobench.Stats{}, err
	}
	defer release()
	return cobench.Describe(stations), nil
}

// layoutSizes returns (once per kind) the relation sizes of k's physical
// layout over the suite's extension: a pure function of the base's
// directory metadata, read through a view once and kept, so Table 2 and
// every DerivedParams call cost no further view.
func (s *Suite) layoutSizes(k store.Kind) (store.SizeReport, error) {
	if rep, ok := s.sizes[k]; ok {
		return rep, nil
	}
	opts, err := s.storeOptions()
	if err != nil {
		return store.SizeReport{}, err
	}
	var rep store.SizeReport
	err = s.withBase(k, s.cfg.Gen, func(base *store.SharedBase) error {
		v, err := base.NewViewAs(k, opts)
		if err != nil {
			return err
		}
		rep = v.Sizes()
		return v.Close()
	})
	if err != nil {
		return store.SizeReport{}, err
	}
	s.sizes[k] = rep
	return rep, nil
}

// Measured is one model × query measurement, normalized per unit (objects
// for query family 1, loops for families 2 and 3).
type Measured struct {
	Model     string
	Query     string
	Supported bool
	Units     float64

	// PerUnit is the engine's normalization, promoted (m.Pages, m.Calls,
	// m.Fixes, ...); zero when the model does not support the query.
	iostat.PerUnit
}

// Matrix holds the full measurement grid of Tables 4-6.
type Matrix struct {
	Rows []Measured
}

// Get returns the measurement for one model × query cell.
func (m *Matrix) Get(model, query string) (Measured, bool) {
	for _, r := range m.Rows {
		if r.Model == model && r.Query == query {
			return r, true
		}
	}
	return Measured{}, false
}

// Models lists the distinct model names in row order.
func (m *Matrix) Models() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range m.Rows {
		if !seen[r.Model] {
			seen[r.Model] = true
			out = append(out, r.Model)
		}
	}
	return out
}

// Matrix runs (once) every benchmark query on every storage model: the
// grid is Measure over all kinds and queries, flattened. Every query
// starts from a cold cache with freshly reset counters, so the measured
// numbers are independent of the width (TestMatrixParallelDeterminism)
// and equal to a privately loaded engine's
// (TestMatrixSharedBaseDeterminism). Row order is always the paper's:
// models in AllKinds order, queries in AllQueries order.
func (s *Suite) Matrix() (*Matrix, error) {
	if s.matrix != nil {
		return s.matrix, nil
	}
	cells, err := s.Measure(store.AllKinds(), cobench.AllQueries())
	if err != nil {
		return nil, err
	}
	s.matrix = &Matrix{Rows: slices.Concat(cells...)}
	return s.matrix, nil
}

// Measure runs the queries on each of the models over the suite's own
// configuration, a fan-out Config.Workers wide with one unit per model:
// each unit opens a fresh view of its layout's cached base, runs the
// queries in order on it and closes it. The result has one row per model,
// in models order, of one cell per query, in queries order. Nothing is
// kept but the bases, so a repeated call measures again — identically —
// on new views of the same bases.
func (s *Suite) Measure(models []store.Kind, queries []cobench.Query) ([][]Measured, error) {
	opts, err := s.storeOptions()
	if err != nil {
		return nil, err
	}
	rows := make([][]Measured, len(models))
	err = fanout.Run(len(models), s.workers(), func(i int) error {
		res, err := s.runQueries(models[i:i+1], opts, s.cfg.Gen, s.cfg.Workload, queries...)
		if err != nil {
			return err
		}
		rows[i] = make([]Measured, len(queries))
		for qi, q := range queries {
			rows[i][qi] = res[0][q]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func toMeasured(res workload.Result) Measured {
	return Measured{
		Model:     res.Model.String(),
		Query:     res.Query.String(),
		Supported: res.Supported,
		Units:     res.Units,
		PerUnit:   res.PerUnit(),
	}
}

// layoutGroups splits models into the runs of neighbours that share a
// physical layout, as [lo, hi) index pairs. A sweep fans out over these
// groups, not over single kinds: the cells of a group run on views of one
// acquired base (runQueries), so every sweep point loads each layout
// exactly once however the workers are scheduled.
func layoutGroups(models []store.Kind) [][2]int {
	var groups [][2]int
	for lo := 0; lo < len(models); {
		hi := lo + 1
		for hi < len(models) && models[hi].Layout() == models[lo].Layout() {
			hi++
		}
		groups = append(groups, [2]int{lo, hi})
		lo = hi
	}
	return groups
}

// runQueries is the one way a cell is measured: acquire the base of the
// given kinds — which must share one physical layout — under the
// generator configuration gen (see withBase), and for each kind run the
// selected queries on a view of it (runView). Results come back in kinds
// order. Safe to call from fan-out workers.
func (s *Suite) runQueries(kinds []store.Kind, opts store.Options, gen cobench.Config, w cobench.Workload, queries ...cobench.Query) ([]map[cobench.Query]Measured, error) {
	out := make([]map[cobench.Query]Measured, len(kinds))
	err := s.withBase(kinds[0], gen, func(base *store.SharedBase) error {
		for i, k := range kinds {
			var err error
			if out[i], err = runView(base, k, opts, w, queries, nil); err != nil {
				return err
			}
		}
		return nil
	})
	return out, err
}

// runView opens a copy-on-write view of kind k over base, runs the
// queries on it in order with the workload w, hands the view's model to
// inspect (when non-nil) and closes the view.
func runView(base *store.SharedBase, k store.Kind, opts store.Options, w cobench.Workload, queries []cobench.Query, inspect func(store.Model)) (map[cobench.Query]Measured, error) {
	v, err := base.NewViewAs(k, opts)
	if err != nil {
		return nil, err
	}
	out := make(map[cobench.Query]Measured, len(queries))
	runner := workload.NewRunner(v, w)
	for _, q := range queries {
		res, err := runner.Run(q)
		if err != nil {
			v.Close()
			return nil, fmt.Errorf("experiments: %s %s: %w", k, q, err)
		}
		out[q] = toMeasured(res)
	}
	if inspect != nil {
		inspect(v.Model)
	}
	return out, v.Close()
}
