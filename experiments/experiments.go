// Package experiments regenerates every table and figure of the paper's
// evaluation: the analytical estimates of Table 3, the measured physical
// page I/Os, I/O calls and buffer fixes of Tables 4-6, the data-skew
// comparison of Table 7, the qualitative ranking of Table 8, the
// object-size sweep of Figure 5 and the database-size/cache sweep of
// Figure 6.
//
// There is one way to a loaded model. Every measured cell — the matrix,
// Figures 5/6, the buffer sweep, Table 7, the policy ablation, the layout
// sizes behind Table 2 — asks the suite's base cache for the frozen base
// of its (physical layout, generator configuration), opens a
// copy-on-write view of it, runs, and closes the view: the first cell to
// need a base loads it once (or maps it from the configured snapshot),
// every other cell shares it, and a cell's memory is the pages it
// dirties. Every experiment is a fan-out over such cells; Config.Workers
// is only the fan-out's width. The one exception is the index ablation,
// whose counted B+-trees are rebuilt per run and cannot be frozen.
//
// A Suite caches the generated extension, the frozen bases of its own
// configuration and every computed result, so asking for several tables
// runs the expensive work once. All runs are deterministic for a given
// configuration, whatever the width.
package experiments

import (
	"fmt"
	"runtime"
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
	// PageSize is the raw page size (default 2048).
	PageSize int
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
	snapMu      sync.Mutex
	snapChecked bool
	snapErr     error
	genOnce     sync.Once
	genErr      error
	stations    []*cobench.Station
	genStats    *cobench.Stats
	bases       *store.BaseCache
	gens        *genShare
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
	s := &Suite{cfg: cfg, sizes: make(map[store.Kind]store.SizeReport), bases: store.NewBaseCache(), gens: newGenShare()}
	// One page pool under every view and loader of the suite: a cell's frame
	// buffers and overlay images serve the next cell instead of the GC.
	s.storeOpts = store.Options{PageSize: cfg.PageSize, BufferPages: cfg.BufferPages, Pages: disk.NewPagePool(cfg.PageSize)}
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

// Config returns the suite's effective configuration.
func (s *Suite) Config() Config { return s.cfg }

// Close releases the frozen-base cache (dropping heap bases and snapshot
// file mappings). The suite must not be used afterwards.
func (s *Suite) Close() error { return s.bases.Close() }

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

// snapshotOK validates (once) that the configured snapshot holds the
// extension the suite is asked to measure. Safe for concurrent use: the
// base cache validates from concurrent build closures.
func (s *Suite) snapshotOK() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.snapChecked {
		return s.snapErr
	}
	s.snapChecked = true
	info, err := snapshot.Stat(s.cfg.Snapshot)
	if err != nil {
		s.snapErr = fmt.Errorf("experiments: snapshot: %w", err)
	} else if info.Gen != s.cfg.Gen {
		s.snapErr = fmt.Errorf("experiments: snapshot %s was built from %+v, configuration wants %+v",
			s.cfg.Snapshot, info.Gen, s.cfg.Gen)
	}
	return s.snapErr
}

// buildBase is the base cache's build closure: the snapshot's arena for
// the suite's own extension when one is configured (mmap'ed in place
// where the platform allows), otherwise a load in place over stations —
// nil only for the suite's own extension, which is generated on demand
// (withBase resolves every other configuration's before it gets here).
func (s *Suite) buildBase(key store.BaseKey, stations []*cobench.Station) func() (*store.SharedBase, error) {
	return func() (*store.SharedBase, error) {
		if s.cfg.Snapshot != "" && key.Gen == s.cfg.Gen {
			if err := s.snapshotOK(); err != nil {
				return nil, err
			}
			return snapshot.OpenBase(s.cfg.Snapshot, key.Kind)
		}
		if stations == nil {
			var err error
			if stations, err = s.extension(); err != nil {
				return nil, err
			}
		}
		return store.LoadBase(key.Kind, s.storeOpts, stations)
	}
}

// withBase runs fn on the frozen base holding k's physical layout of gen
// (stations may carry a pre-generated copy of the extension, or be nil)
// — the single acquisition point of every experiment, so e.g. the
// Figure 5 default-sightseeing column and the whole buffer sweep reuse the
// bases the matrix loaded, and DSM and DASDBS-DSM, one layout read two
// ways, share one base (callers open it with OpenAs).
//
// The suite's own configuration is pinned: its bases are built at most
// once and live until Close, because later experiments come back for
// them. Any other configuration (a Figure 5/6 column, the skew
// extension) is scoped to the cells in flight: concurrent cells of one
// configuration share one generation and one base, and both are dropped
// when the last of them returns, so a sweep's memory tracks its width,
// not the number of configurations swept. Only concurrency-safe suite
// state is touched; cells call this from fan-out workers.
func (s *Suite) withBase(k store.Kind, gen cobench.Config, stations []*cobench.Station, fn func(*store.SharedBase) error) error {
	key := store.BaseKey{Kind: k.Layout(), PageSize: s.storeOpts.PageSize, Gen: gen}
	if gen == s.cfg.Gen {
		base, err := s.bases.Get(key, s.buildBase(key, stations))
		if err != nil {
			return err
		}
		return fn(base)
	}
	if stations == nil {
		st, release, err := s.gens.acquire(gen)
		if err != nil {
			return err
		}
		defer release()
		stations = st
	}
	base, release, err := s.bases.GetScoped(key, s.buildBase(key, stations))
	if err != nil {
		return err
	}
	if err := fn(base); err != nil {
		release()
		return err
	}
	return release()
}

// extension generates (once) and returns the benchmark database. Safe
// for concurrent use: base-cache build closures for different layouts
// race to it.
func (s *Suite) extension() ([]*cobench.Station, error) {
	s.genOnce.Do(func() {
		st, err := cobench.Generate(s.cfg.Gen)
		if err != nil {
			s.genErr = fmt.Errorf("experiments: generate: %w", err)
			return
		}
		s.stations = st
		gs := cobench.Describe(st)
		s.genStats = &gs
	})
	return s.stations, s.genErr
}

// extensionOf returns gen's extension: the suite's own, generated once,
// when gen is the suite's configuration, else a fresh one for the caller.
func (s *Suite) extensionOf(gen cobench.Config) ([]*cobench.Station, error) {
	if gen == s.cfg.Gen {
		return s.extension()
	}
	return cobench.Generate(gen)
}

// ExtensionStats describes the generated extension (realised averages,
// reported alongside Table 4 in §5.1).
func (s *Suite) ExtensionStats() (cobench.Stats, error) {
	if _, err := s.extension(); err != nil {
		return cobench.Stats{}, err
	}
	return *s.genStats, nil
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
	err = s.withBase(k, s.cfg.Gen, nil, func(base *store.SharedBase) error {
		m, err := base.OpenAs(k, opts)
		if err != nil {
			return err
		}
		rep = m.Sizes()
		return m.Engine().Close()
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

// Matrix runs (once) every benchmark query on every storage model.
//
// The grid is one fan-out over the storage models: each unit opens one
// view of its model's cached base and runs the seven queries on it in
// paper order. Every query starts from a cold cache with freshly reset
// counters, so the measured numbers are independent of the width
// (TestMatrixParallelDeterminism) and equal to a privately loaded engine's
// (TestMatrixSharedBaseDeterminism). Row order is always the paper's:
// models in AllKinds order, queries in AllQueries order.
func (s *Suite) Matrix() (*Matrix, error) {
	if s.matrix != nil {
		return s.matrix, nil
	}
	opts, err := s.storeOptions()
	if err != nil {
		return nil, err
	}
	kinds := store.AllKinds()
	queries := cobench.AllQueries()
	rows := make([]Measured, len(kinds)*len(queries))
	err = fanout.Run(len(kinds), s.workers(), func(ki int) error {
		res, err := s.runQueries(kinds[ki:ki+1], opts, s.cfg.Gen, nil, s.cfg.Workload, queries...)
		if err != nil {
			return err
		}
		for qi, q := range queries {
			rows[ki*len(queries)+qi] = res[0][q]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.matrix = &Matrix{Rows: rows}
	return s.matrix, nil
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
// generator configuration gen (see withBase), and for each kind open a
// copy-on-write view, run the selected queries on it with the given
// workload, and close it. Results come back in kinds order. Safe to call
// from fan-out workers.
func (s *Suite) runQueries(kinds []store.Kind, opts store.Options, gen cobench.Config, stations []*cobench.Station, w cobench.Workload, queries ...cobench.Query) ([]map[cobench.Query]Measured, error) {
	out := make([]map[cobench.Query]Measured, len(kinds))
	err := s.withBase(kinds[0], gen, stations, func(base *store.SharedBase) error {
		for i, k := range kinds {
			m, err := base.OpenAs(k, opts)
			if err != nil {
				return err
			}
			out[i] = make(map[cobench.Query]Measured, len(queries))
			runner := workload.NewRunner(m, w)
			for _, q := range queries {
				res, err := runner.Run(q)
				if err != nil {
					m.Engine().Close()
					return fmt.Errorf("experiments: %s %s: %w", k, q, err)
				}
				out[i][q] = toMeasured(res)
			}
			if err := m.Engine().Close(); err != nil {
				return err
			}
		}
		return nil
	})
	return out, err
}
