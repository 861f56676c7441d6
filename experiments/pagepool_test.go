package experiments

import (
	"runtime"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/store"
)

// recycleConfig is `cotables -n 300 -loops 60`, one cell at a time.
func recycleConfig() Config {
	cfg := DefaultConfig()
	cfg.Gen.N = 300
	cfg.Workload.Loops = 60
	cfg.Workers = 1
	return cfg
}

// TestSuiteRecyclesPages pins the suite-owned page pool end to end.
func TestSuiteRecyclesPages(t *testing.T) {
	t.Run("hit ratio", testPoolHitRatio)
	t.Run("first update cell", testFirstUpdateCell)
	t.Run("second update cell", testSecondUpdateCell)
	t.Run("second read cell", testSecondReadCell)
}

// Across the matrix and Figure 5 — loaders, read cells, update cells — most
// page buffers an engine asks for were handed back by an engine before it.
func testPoolHitRatio(t *testing.T) {
	s := New(recycleConfig())
	defer s.Close()
	if _, err := s.Matrix(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Figure5(); err != nil {
		t.Fatal(err)
	}
	gets, hits, held := s.storeOpts.Pages.Stats()
	t.Logf("page pool: %d gets, %d hits (%.2f), %d held", gets, hits, float64(hits)/float64(gets), held)
	if gets == 0 || float64(hits) < 0.7*float64(gets) {
		t.Errorf("page pool served %d of %d requests, want at least 0.7", hits, gets)
	}
}

// An update cell of Figure 5's default column (query 3b on a view of the
// matrix's DSM base) run on an empty pool needs ≈ 3.6 MB of page buffers,
// overlay images and promoted frames, and the pool cuts them from chunks
// off the Go heap: what the cell allocates there is its engine's
// scaffolding and lists, ≈ 0.42 MB (≈ 0.56 MB under -race).
func testFirstUpdateCell(t *testing.T) {
	if first, _ := secondCell(t, cobench.Q3b); first > 1<<20 {
		t.Errorf("first update cell allocated %d heap bytes, want at most 1 MiB", first)
	}
}

// The identical update cell run next finds the scaffolding and the pages
// in the pool and allocates less than half the bytes.
func testSecondUpdateCell(t *testing.T) {
	first, second := secondCell(t, cobench.Q3b)
	if 2*second >= first {
		t.Errorf("second cell allocated %d bytes, first %d: want below half", second, first)
	}
}

// A read cell (query 2b on a view of the same base) dirties no page; what
// it allocates is its engine's scaffolding — frame index, frames, free
// lists — and the page buffers its misses copy into. Run next on the pool
// the first left, the identical cell finds all of it there.
func testSecondReadCell(t *testing.T) {
	if _, second := secondCell(t, cobench.Q2b); second > 48<<10 {
		t.Errorf("second read cell allocated %d bytes, want at most 48 KiB", second)
	}
}

// secondCell runs one cell of query q on a view of the suite's DSM base
// twice over a page pool that starts empty, checks that both measure the
// same, and returns the bytes each allocated.
func secondCell(t *testing.T, q cobench.Query) (first, second uint64) {
	if disk.New().NewPage()[0] == 0xDB { // a poolless device's page reads 0xDB only there
		t.Skip("poison build: lent scratch is dropped, not reused, and drowns the pages")
	}
	s := New(recycleConfig())
	defer s.Close()
	if _, err := s.layoutSizes(store.DSM); err != nil { // load the base first
		t.Fatal(err)
	}
	opts := s.storeOpts
	opts.Pages = disk.NewPagePool() // what the loader returned is not the cell's
	defer func() {
		if err := opts.Pages.Drain(); err != nil {
			t.Error(err)
		}
	}()
	cell := func() (allocated uint64, pages float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := s.runQueries([]store.Kind{store.DSM}, opts, s.cfg.Gen, s.cfg.Workload, q)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, res[0][q].Pages
	}
	first, pages1 := cell()
	second, pages2 := cell()
	t.Logf("query %v cell: %d bytes on an empty pool, %d on what it left", q, first, second)
	if pages1 != pages2 {
		t.Errorf("the cells measured %v and %v pages per loop", pages1, pages2)
	}
	return first, second
}

// BenchmarkViewCell is one measured cell as every experiment runs it: open
// a view of a cached base with the suite's options, run query 3b, close.
// What it allocates from the second op on is what a cell costs beyond the
// pages the cell before it gave back (B/op and allocs/op are CI-gated).
func BenchmarkViewCell(b *testing.B) {
	s := New(recycleConfig())
	defer s.Close()
	cell := func() {
		if _, err := s.runQueries([]store.Kind{store.DSM}, s.storeOpts, s.cfg.Gen, s.cfg.Workload, cobench.Q3b); err != nil {
			b.Fatal(err)
		}
	}
	cell() // loads the base
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell()
	}
}
