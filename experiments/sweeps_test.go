package experiments

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"complexobj/internal/snapshot"
	"complexobj/internal/store"
)

// shrinkSweeps temporarily reduces the sweep axes so the determinism tests
// stay fast, restoring the paper axes afterwards.
func shrinkSweeps(t *testing.T) {
	t.Helper()
	savedFig6, savedBuf := Fig6Sizes, BufferSizes
	Fig6Sizes = []int{60, 120}
	BufferSizes = []int{100, 300}
	t.Cleanup(func() { Fig6Sizes, BufferSizes = savedFig6, savedBuf })
}

// TestSweepParallelDeterminism pins the satellite guarantee for the
// parallelized sweeps: Figure 5, Figure 6, the buffer sweep and Table 7
// produce byte-identical results for any worker count, because every cell
// owns a private engine over a deterministic generation.
func TestSweepParallelDeterminism(t *testing.T) {
	shrinkSweeps(t)
	type sweeps struct {
		fig5 []Fig5Cell
		fig6 []Fig6Point
		buf  []BufferPoint
		t7   []SkewRow
	}
	run := func(workers int) sweeps {
		cfg := smallConfig()
		cfg.Workers = workers
		s := New(cfg)
		defer s.Close()
		var out sweeps
		var err error
		if out.fig5, err = s.Figure5(); err != nil {
			t.Fatalf("workers=%d figure5: %v", workers, err)
		}
		if out.fig6, err = s.Figure6(); err != nil {
			t.Fatalf("workers=%d figure6: %v", workers, err)
		}
		if out.buf, err = s.BufferSweep(); err != nil {
			t.Fatalf("workers=%d buffersweep: %v", workers, err)
		}
		if out.t7, err = s.Table7(); err != nil {
			t.Fatalf("workers=%d table7: %v", workers, err)
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{3, 8} {
		parallel := run(workers)
		if !reflect.DeepEqual(serial.fig5, parallel.fig5) {
			t.Errorf("workers=%d: Figure 5 differs from serial", workers)
		}
		if !reflect.DeepEqual(serial.fig6, parallel.fig6) {
			t.Errorf("workers=%d: Figure 6 differs from serial", workers)
		}
		if !reflect.DeepEqual(serial.buf, parallel.buf) {
			t.Errorf("workers=%d: buffer sweep differs from serial", workers)
		}
		if !reflect.DeepEqual(serial.t7, parallel.t7) {
			t.Errorf("workers=%d: Table 7 differs from serial", workers)
		}
	}
}

// TestSweepSharedBaseDeterminism is the tentpole acceptance test of the
// config-keyed base cache: every sweep section (Figure 5, Figure 6, the
// buffer sweep and Table 7) is byte-identical between private engines
// (mem backend, serial — the cache never engages) and copy-on-write views
// over cached frozen bases (cow backend, 8 workers), both when the bases
// are frozen from freshly loaded models and when they are opened from a
// .codb snapshot (mmap'ed in place on platforms that support it).
func TestSweepSharedBaseDeterminism(t *testing.T) {
	shrinkSweeps(t)
	type sweeps struct {
		fig5 []Fig5Cell
		fig6 []Fig6Point
		buf  []BufferPoint
		t7   []SkewRow
	}
	run := func(label string, cfg Config) (sweeps, *Suite) {
		s := New(cfg)
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
		return out, s
	}
	check := func(label string, want, got sweeps) {
		t.Helper()
		if !reflect.DeepEqual(want.fig5, got.fig5) {
			t.Errorf("%s: Figure 5 differs from private-engine run", label)
		}
		if !reflect.DeepEqual(want.fig6, got.fig6) {
			t.Errorf("%s: Figure 6 differs from private-engine run", label)
		}
		if !reflect.DeepEqual(want.buf, got.buf) {
			t.Errorf("%s: buffer sweep differs from private-engine run", label)
		}
		if !reflect.DeepEqual(want.t7, got.t7) {
			t.Errorf("%s: Table 7 differs from private-engine run", label)
		}
	}

	memCfg := smallConfig()
	memCfg.Backend = "mem"
	memCfg.Workers = 1
	private, memSuite := run("mem/serial", memCfg)
	defer memSuite.Close()

	cowCfg := smallConfig()
	cowCfg.Backend = "cow"
	cowCfg.Workers = 8
	shared, cowSuite := run("cow/8", cowCfg)
	check("cow/8", private, shared)
	// The cache must actually have been shared: one base built per
	// distinct (physical layout, generator config) — DSM and DASDBS-DSM
	// are one layout — far fewer than the number of sweep cells, and the
	// same number however the workers were scheduled. With the shrunk
	// axes: 4 default-gen layouts (matrix via Table 7; the Figure 5
	// maxSee=15 column and the whole buffer sweep reuse them), 2x2
	// non-default Figure 5 columns, 2x2 Figure 6 sizes, 3 skew layouts.
	cells := len(shared.fig5)*3 + len(shared.fig6) + len(shared.buf) + len(shared.t7) + 5*7
	if want := int64(4 + 4 + 4 + 3); cowSuite.bases.Built() != want {
		t.Errorf("base cache built %d bases, want %d (of %d measured cells)",
			cowSuite.bases.Built(), want, cells)
	}
	// ... but only the pinned default-configuration bases are retained:
	// every one-off sweep configuration was acquired scoped and dropped
	// when the last cell of its configuration finished.
	if want := 4; cowSuite.bases.Len() != want {
		t.Errorf("base cache retains %d entries, want %d (scoped sweep bases must be released)",
			cowSuite.bases.Len(), want)
	}
	// The transient generation share retained nothing either; every
	// non-default extension was generated at most once per overlapping
	// set of cell groups (2 Figure 6 sizes x 2 layouts, 1 skew config x 3
	// layouts — between 3 generations under full overlap and 7 under none).
	if n := cowSuite.gens.inFlight(); n != 0 {
		t.Errorf("generation share retains %d entries, want 0", n)
	}
	if got := cowSuite.gens.generations(); got < 3 || got > 7 {
		t.Errorf("generation share built %d extensions, want between 3 (full overlap) and 7 (none)", got)
	}
	cowSuite.Close()

	// Snapshot-backed bases: the default-gen bases now come straight from
	// the .codb file (one mmap per kind on Linux) instead of load+freeze.
	stations, err := memSuite.extension()
	if err != nil {
		t.Fatal(err)
	}
	var models []store.Model
	for _, k := range store.AllKinds() {
		m, err := store.New(k, store.Options{BufferPages: memCfg.BufferPages})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Engine().Close()
		if err := m.Load(stations); err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	path := filepath.Join(t.TempDir(), "sweeps.codb")
	if err := snapshot.Write(path, memCfg.Gen, models...); err != nil {
		t.Fatal(err)
	}
	snapCfg := smallConfig()
	snapCfg.Backend = "cow"
	snapCfg.Workers = 8
	snapCfg.Snapshot = path
	fromSnap, snapSuite := run("cow/snapshot", snapCfg)
	defer snapSuite.Close()
	check("cow/snapshot", private, fromSnap)
}

// TestMatrixBackendEquivalence asserts the acceptance property at the
// harness level, three ways: the full paper query matrix is bit-identical
// between the memory, file and copy-on-write backends. (The cow run here
// exercises the serial path over bare overlays; the shared-base parallel
// path is pinned by TestMatrixSharedBaseDeterminism.)
func TestMatrixBackendEquivalence(t *testing.T) {
	memCfg := smallConfig()
	memCfg.Backend = "mem"
	memSuite := New(memCfg)
	defer memSuite.Close()
	mem, err := memSuite.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"file:" + t.TempDir(), "cow"} {
		cfg := smallConfig()
		cfg.Backend = backend
		s := New(cfg)
		m, err := s.Matrix()
		if err != nil {
			s.Close()
			t.Fatalf("%s: %v", backend, err)
		}
		if !reflect.DeepEqual(mem.Rows, m.Rows) {
			t.Errorf("matrix differs between memory and %s backend", backend)
		}
		s.Close()
	}
}

// TestMatrixFromSnapshot asserts the cotables -db path: a matrix computed
// from snapshot-restored models equals the matrix from freshly generated
// and loaded ones, and mismatched snapshots are rejected.
func TestMatrixFromSnapshot(t *testing.T) {
	cfg := smallConfig()
	freshSuite := New(cfg)
	defer freshSuite.Close()
	fresh, err := freshSuite.Matrix()
	if err != nil {
		t.Fatal(err)
	}

	// Build the snapshot the way cogen does: load every model with the
	// suite's options, then serialize.
	opts := store.Options{BufferPages: cfg.BufferPages}
	stations, err := freshSuite.extension()
	if err != nil {
		t.Fatal(err)
	}
	var models []store.Model
	for _, k := range store.AllKinds() {
		m, err := store.New(k, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Engine().Close()
		if err := m.Load(stations); err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	path := filepath.Join(t.TempDir(), "matrix.codb")
	if err := snapshot.Write(path, cfg.Gen, models...); err != nil {
		t.Fatal(err)
	}

	snapCfg := smallConfig()
	snapCfg.Snapshot = path
	snapSuite := New(snapCfg)
	defer snapSuite.Close()
	snap, err := snapSuite.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Rows, snap.Rows) {
		t.Error("matrix from snapshot differs from freshly loaded matrix")
	}

	// A snapshot of a different extension must be refused, not measured.
	wrongCfg := smallConfig()
	wrongCfg.Gen = wrongCfg.Gen.WithN(wrongCfg.Gen.N + 1)
	wrongCfg.Snapshot = path
	wrongSuite := New(wrongCfg)
	defer wrongSuite.Close()
	if _, err := wrongSuite.Matrix(); err == nil {
		t.Error("mismatched snapshot accepted")
	}
}

// TestSectionTitlesMatch pins the static Section.Titles (which drive
// cotables' compute-only-what--only-matches behaviour) against the titles
// the Build functions actually emit: every emitted title must begin with
// its declared static title, one declaration per table, in order.
func TestSectionTitlesMatch(t *testing.T) {
	s := paperSuite(t)
	for si, sec := range Sections() {
		tables, err := sec.Build(s)
		if err != nil {
			t.Fatalf("section %d: %v", si, err)
		}
		if len(tables) != len(sec.Titles) {
			t.Errorf("section %d emits %d tables but declares %d titles", si, len(tables), len(sec.Titles))
			continue
		}
		for i, tbl := range tables {
			if !strings.HasPrefix(tbl.Title, sec.Titles[i]) {
				t.Errorf("section %d table %d: emitted title %q does not start with declared %q",
					si, i, tbl.Title, sec.Titles[i])
			}
		}
	}
}
