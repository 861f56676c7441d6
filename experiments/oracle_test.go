package experiments

import (
	"path/filepath"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/buffer"
	"complexobj/internal/snapshot"
	"complexobj/internal/store"
	"complexobj/internal/workload"
)

// oracle measures cells the way the product no longer does: every cell
// gets a private heap-arena engine — store.New, Load, one Runner.Run —
// that shares nothing with any other cell. It is the reference the
// suite's one execution path (copy-on-write views of cached bases, at
// any width, fresh or snapshot-backed) is held to: a cell the suite
// reports must equal the oracle's, counter for counter.
type oracle struct {
	t     *testing.T
	cfg   Config
	gens  map[cobench.Config][]*cobench.Station
	cells map[oracleCell]Measured
}

// oracleCell names one measurement: everything a counter can depend on.
type oracleCell struct {
	kind   store.Kind
	gen    cobench.Config
	buffer int
	w      cobench.Workload
	q      cobench.Query
}

func newOracle(t *testing.T, cfg Config) *oracle {
	return &oracle{t: t, cfg: cfg,
		gens:  make(map[cobench.Config][]*cobench.Station),
		cells: make(map[oracleCell]Measured)}
}

func (o *oracle) stations(gen cobench.Config) []*cobench.Station {
	st, ok := o.gens[gen]
	if !ok {
		var err error
		if st, err = cobench.Generate(gen); err != nil {
			o.t.Fatal(err)
		}
		o.gens[gen] = st
	}
	return st
}

// cell measures (once) query q on a freshly loaded private engine.
func (o *oracle) cell(k store.Kind, gen cobench.Config, bufferPages int, w cobench.Workload, q cobench.Query) Measured {
	o.t.Helper()
	key := oracleCell{k, gen, bufferPages, w, q}
	if m, ok := o.cells[key]; ok {
		return m
	}
	opts := store.Options{PageSize: o.cfg.PageSize, BufferPages: bufferPages}
	if o.cfg.UseClock {
		opts.Policy = buffer.Clock
	}
	m, err := store.New(k, opts)
	if err != nil {
		o.t.Fatal(err)
	}
	defer m.Engine().Close()
	if err := m.Load(o.stations(gen)); err != nil {
		o.t.Fatal(err)
	}
	res, err := workload.NewRunner(m, w).Run(q)
	if err != nil {
		o.t.Fatalf("oracle %s %s: %v", k, q, err)
	}
	o.cells[key] = toMeasured(res)
	return o.cells[key]
}

// checkMatrix holds every row of a suite's matrix to the oracle.
func (o *oracle) checkMatrix(label string, got *Matrix) {
	o.t.Helper()
	kinds, queries := store.AllKinds(), cobench.AllQueries()
	if len(got.Rows) != len(kinds)*len(queries) {
		o.t.Fatalf("%s: matrix has %d rows, want %d", label, len(got.Rows), len(kinds)*len(queries))
	}
	for ki, k := range kinds {
		for qi, q := range queries {
			want := o.cell(k, o.cfg.Gen, o.cfg.BufferPages, o.cfg.Workload, q)
			if row := got.Rows[ki*len(queries)+qi]; row != want {
				o.t.Errorf("%s: matrix %s %s differs from the private engine:\nsuite:  %+v\noracle: %+v", label, k, q, row, want)
			}
		}
	}
}

// sweeps holds the four sweep sections of one suite.
type sweeps struct {
	fig5 []Fig5Cell
	fig6 []Fig6Point
	buf  []BufferPoint
	t7   []SkewRow
}

func runSweeps(t *testing.T, label string, s *Suite) sweeps {
	t.Helper()
	var out sweeps
	var err error
	if out.fig5, err = s.Figure5(); err != nil {
		t.Fatalf("%s figure5: %v", label, err)
	}
	if out.fig6, err = s.Figure6(); err != nil {
		t.Fatalf("%s figure6: %v", label, err)
	}
	if out.buf, err = s.BufferSweep(); err != nil {
		t.Fatalf("%s buffersweep: %v", label, err)
	}
	if out.t7, err = s.Table7(); err != nil {
		t.Fatalf("%s table7: %v", label, err)
	}
	return out
}

// checkSweeps holds every measured figure of the sweep sections to the
// oracle: the Figure 5 and 6 cells over their own extensions, the buffer
// sweep's pages and hit ratio per cache size, and both halves of Table 7.
func (o *oracle) checkSweeps(label string, got sweeps) {
	o.t.Helper()
	cfg := o.cfg
	kind := func(name string) store.Kind {
		for _, k := range store.AllKinds() {
			if k.String() == name {
				return k
			}
		}
		o.t.Fatalf("%s: unknown model %q", label, name)
		return 0
	}
	eq := func(what string, got, want float64) {
		o.t.Helper()
		if got != want {
			o.t.Errorf("%s: %s = %v, private engine measures %v", label, what, got, want)
		}
	}
	if len(got.fig5) != 3*len(fig5Models) || len(got.fig6) != len(Fig6Sizes)*len(fig5Models) ||
		len(got.buf) != len(BufferSizes)*len(fig5Models) || len(got.t7) != len(store.AllKinds())-1 {
		o.t.Fatalf("%s: sweep sections have %d/%d/%d/%d cells", label, len(got.fig5), len(got.fig6), len(got.buf), len(got.t7))
	}
	for _, c := range got.fig5 {
		gen := cfg.Gen.WithMaxSeeing(c.MaxSeeing)
		for q, v := range map[cobench.Query]float64{cobench.Q1c: c.Q1c, cobench.Q2b: c.Q2b, cobench.Q3b: c.Q3b} {
			eq("Figure 5 "+c.Model+" "+q.String(), v, o.cell(kind(c.Model), gen, cfg.BufferPages, cfg.Workload, q).Pages)
		}
	}
	for _, p := range got.fig6 {
		w := cfg.Workload
		w.Loops = p.Loops
		eq("Figure 6 "+p.Model, p.Measured, o.cell(kind(p.Model), cfg.Gen.WithN(p.N), cfg.BufferPages, w, cobench.Q2b).Pages)
	}
	for _, p := range got.buf {
		want := o.cell(kind(p.Model), cfg.Gen, p.BufferPages, cfg.Workload, cobench.Q2b)
		eq("buffer sweep "+p.Model, p.Measured, want.Pages)
		eq("buffer sweep hit ratio "+p.Model, p.HitRatio, want.Hits/want.Fixes)
	}
	for _, r := range got.t7 {
		k := kind(r.Model)
		eq("Table 7 default 2a "+r.Model, r.DefaultQ2a, o.cell(k, cfg.Gen, cfg.BufferPages, cfg.Workload, cobench.Q2a).Pages)
		eq("Table 7 default 2b "+r.Model, r.DefaultQ2b, o.cell(k, cfg.Gen, cfg.BufferPages, cfg.Workload, cobench.Q2b).Pages)
		eq("Table 7 skew 2a "+r.Model, r.SkewQ2a, o.cell(k, cfg.Gen.Skewed(), cfg.BufferPages, cfg.Workload, cobench.Q2a).Pages)
		eq("Table 7 skew 2b "+r.Model, r.SkewQ2b, o.cell(k, cfg.Gen.Skewed(), cfg.BufferPages, cfg.Workload, cobench.Q2b).Pages)
	}
}

// writeSnapshot builds a .codb file of cfg's extension the way cogen
// does — load every requested model (default: all five) into a private
// engine, then serialize — and returns its path.
func writeSnapshot(t *testing.T, cfg Config, kinds ...store.Kind) string {
	t.Helper()
	if len(kinds) == 0 {
		kinds = store.AllKinds()
	}
	stations, err := cobench.Generate(cfg.Gen)
	if err != nil {
		t.Fatal(err)
	}
	var models []store.Model
	for _, k := range kinds {
		m, err := store.New(k, store.Options{BufferPages: cfg.BufferPages})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Engine().Close()
		if err := m.Load(stations); err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	path := filepath.Join(t.TempDir(), "snapshot.codb")
	if err := snapshot.Write(path, cfg.Gen, models...); err != nil {
		t.Fatal(err)
	}
	return path
}
