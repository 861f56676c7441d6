package experiments

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/snapshot"
	"complexobj/internal/store"
	"complexobj/internal/workload"
)

// diskCOWStats reports the COW memory split of a model's engine.
func diskCOWStats(m store.Model) (disk.COWStats, bool) {
	return disk.COWStatsOf(m.Engine().Dev.Backend())
}

// TestMatrixSharedBaseDeterminism is the acceptance test of the one
// execution path: the matrix measured on copy-on-write views of shared
// cached bases is bit-identical, at any fan-out width, to the oracle's
// private heap-arena engine per cell. (It subsumes the deleted
// TestMatrixBackendEquivalence — Config.Backend no longer selects
// anything; arena-kind equivalence at counter level stays pinned by
// internal/workload's TestBackendCounterEquivalence.)
func TestMatrixSharedBaseDeterminism(t *testing.T) {
	o := newOracle(t, smallConfig())
	for _, workers := range []int{1, 2, 8} {
		cfg := smallConfig()
		cfg.Workers = workers
		s := New(cfg)
		got, err := s.Matrix()
		if err != nil {
			s.Close()
			t.Fatalf("workers=%d: %v", workers, err)
		}
		o.checkMatrix(fmt.Sprintf("workers=%d", workers), got)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMatrixSharedBaseFromSnapshot pins the snapshot variant at width:
// eight workers opening views of bases mapped once from a .codb file
// measure identically to the oracle's freshly loaded private engines.
func TestMatrixSharedBaseFromSnapshot(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 8
	cfg.Snapshot = writeSnapshot(t, smallConfig())
	s := New(cfg)
	defer s.Close()
	got, err := s.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	newOracle(t, smallConfig()).checkMatrix("snapshot/workers=8", got)
	if got := s.bases.Built(); got != 3 {
		t.Errorf("snapshot-backed matrix opened %d bases, want 3 (one per layout)", got)
	}
}

// TestMatrixSharedBaseMemory is the deterministic memory smoke: after an
// 8-wide matrix the suite holds one base per physical layout, and a view
// of one — opened here the way every cell opens it — keeps only a small
// private overlay next to the shared arena even after the update queries,
// i.e. page memory is ~one loaded extension per layout, not per cell.
func TestMatrixSharedBaseMemory(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 8
	s := New(cfg)
	defer s.Close()
	if _, err := s.Matrix(); err != nil {
		t.Fatal(err)
	}
	if got := s.bases.Built(); got != 3 {
		t.Fatalf("matrix built %d bases, want 3 (DSM and DASDBS-DSM share one, NSM and NSM+index another)", got)
	}
	baseBytes, overlayBytes := 0, 0
	for _, k := range store.AllKinds() {
		err := s.withBase(k, cfg.Gen, func(base *store.SharedBase) error {
			m, err := base.OpenAs(k, s.storeOpts)
			if err != nil {
				return err
			}
			defer m.Engine().Close()
			// Only the update queries dirty pages; 3a+3b on one view is
			// the worst overlay any cell of the suite can reach.
			runner := workload.NewRunner(m, cfg.Workload)
			for _, q := range []cobench.Query{cobench.Q3a, cobench.Q3b} {
				if _, err := runner.Run(q); err != nil {
					return err
				}
			}
			st, ok := diskCOWStats(m)
			if !ok {
				t.Fatalf("%s: a measured cell's engine is not a COW view", k)
			}
			baseBytes += st.BaseBytes
			overlayBytes += st.OverlayBytes
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.bases.Built() != 3 {
		t.Fatalf("opening views rebuilt bases: %d built, want 3", s.bases.Built())
	}
	if baseBytes == 0 {
		t.Fatal("no shared base bytes accounted")
	}
	// The write sets measure 28% of the base bytes at this scale — assert
	// half.
	if overlayBytes*2 > baseBytes {
		t.Errorf("overlays (%d bytes) not small next to shared bases (%d bytes)", overlayBytes, baseBytes)
	}
}

// TestOpenBaseMappedEquivalence pins the zero-copy snapshot path: views
// over an mmap'ed base measure bit-identically to views over a heap-copy
// base — including an update query, which extends the overlay-never-
// mutates-base regression to the mapped variant (the snapshot file must
// be byte-identical after the whole lifecycle).
func TestOpenBaseMappedEquivalence(t *testing.T) {
	cfg := smallConfig()
	path := writeSnapshot(t, cfg, store.DSM, store.DASDBSNSM)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Queries 2b (navigation) and 3b (update: dirties pages) per kind.
	queries := []cobench.Query{cobench.Q2b, cobench.Q3b}
	for _, k := range []store.Kind{store.DSM, store.DASDBSNSM} {
		heapResults := make(map[cobench.Query]Measured, len(queries))
		heapBase, err := snapshot.OpenBaseHeap(path, k)
		if err != nil {
			t.Fatal(err)
		}
		mapBase, err := snapshot.OpenBase(path, k)
		if err != nil {
			t.Fatal(err)
		}
		if disk.CanMapBase && !mapBase.Mapped() {
			t.Fatalf("%s: OpenBase did not map the arena on a mmap-capable platform", k)
		}
		if mapBase.Mapped() && heapBase.Mapped() {
			t.Fatalf("%s: OpenBaseHeap produced a mapped arena", k)
		}
		for _, base := range []*store.SharedBase{heapBase, mapBase} {
			view, err := base.Open(store.Options{BufferPages: cfg.BufferPages})
			if err != nil {
				t.Fatal(err)
			}
			runner := workload.NewRunner(view, cfg.Workload)
			for _, q := range queries {
				res, err := runner.Run(q)
				if err != nil {
					t.Fatalf("%s %s: %v", k, q, err)
				}
				if base == heapBase {
					heapResults[q] = toMeasured(res)
				} else if !reflect.DeepEqual(heapResults[q], toMeasured(res)) {
					t.Errorf("%s %s: mapped-base counters differ from heap-base counters", k, q)
				}
			}
			if err := view.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := view.Engine().Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := heapBase.Release(); err != nil {
			t.Fatal(err)
		}
		if err := mapBase.Release(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pristine, after) {
		t.Fatal("snapshot file changed under mapped views (flushed updates must stay in overlays)")
	}
}

// TestMatrixPeakRSS logs the process peak RSS after an 8-wide matrix at
// paper scale, with the bases loaded fresh or — when COMPLEXOBJ_SNAPSHOT
// names a .codb file — mapped from it. It asserts nothing by itself: CI
// runs it once per configuration in separate processes and gates the
// figures (fresh under an absolute budget; snapshot-mapped not above
// fresh). Gated behind COMPLEXOBJ_RSS so the regular test runs do not pay
// a paper-scale matrix repeatedly.
func TestMatrixPeakRSS(t *testing.T) {
	if os.Getenv("COMPLEXOBJ_RSS") == "" {
		t.Skip("set COMPLEXOBJ_RSS=1 to measure peak RSS")
	}
	if runtime.GOOS != "linux" {
		t.Skip("peak RSS via /proc is Linux-only")
	}
	cfg := DefaultConfig()
	cfg.Snapshot = os.Getenv("COMPLEXOBJ_SNAPSHOT")
	cfg.Workers = 8
	s := New(cfg)
	defer s.Close()
	if _, err := s.Matrix(); err != nil {
		t.Fatal(err)
	}
	hwm, err := peakRSSKB()
	if err != nil {
		t.Fatal(err)
	}
	bases := "fresh"
	if cfg.Snapshot != "" {
		bases = "db"
	}
	fmt.Printf("peak-rss-kb bases=%s workers=8 kb=%d\n", bases, hwm)
}

// TestSuitePeakRSS logs the process peak RSS after the whole
// reproduction (All) at paper scale, two workers wide, over freshly
// loaded bases: what one `cotables -workers 2` run holds, the one-off
// bases of the sweeps and Table 7 included. Like TestMatrixPeakRSS it
// asserts nothing by itself; CI gates the figure under an absolute
// budget. Gated behind COMPLEXOBJ_RSS.
func TestSuitePeakRSS(t *testing.T) {
	if os.Getenv("COMPLEXOBJ_RSS") == "" {
		t.Skip("set COMPLEXOBJ_RSS=1 to measure peak RSS")
	}
	if runtime.GOOS != "linux" {
		t.Skip("peak RSS via /proc is Linux-only")
	}
	cfg := DefaultConfig()
	cfg.Workers = 2
	s := New(cfg)
	defer s.Close()
	if _, err := s.All(); err != nil {
		t.Fatal(err)
	}
	hwm, err := peakRSSKB()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("peak-rss-kb suite=all workers=2 kb=%d\n", hwm)
}

// TestSuiteCloseFreesArenas pins the lifetime of the loader arenas a
// reproduction builds, which live outside the Go heap and so are freed by
// their owners or not at all: after All the suite's pinned bases hold
// theirs (every one-off base of a sweep has already freed its own), and
// Close frees the rest. The count is taken against the one before the
// suite was made, since the package's shared paper-scale suite may be
// open; TestMain holds the whole package to zero at its end. Close also
// empties the suite's page pool: the page buffers and scaffolding its
// closed engines left there.
func TestSuiteCloseFreesArenas(t *testing.T) {
	before := disk.LiveArenaBytes()
	s := New(smallConfig())
	if _, err := s.All(); err != nil {
		t.Fatal(err)
	}
	if disk.LiveArenaBytes() == before {
		t.Error("no loader arena live after All: the suite's own bases are gone before Close")
	}
	pool := s.storeOpts.Pages
	if _, _, held := pool.Stats(); held == 0 || pool.Scaffolds() == 0 {
		t.Errorf("after All the page pool holds %d pages and %d scaffolds: no engine gave any back", held, pool.Scaffolds())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := disk.LiveArenaBytes() - before; n != 0 {
		t.Errorf("%d loader-arena bytes the suite built are live after its Close, want 0", n)
	}
	if _, _, held := pool.Stats(); held != 0 || pool.Scaffolds() != 0 {
		t.Errorf("after Close the page pool holds %d pages and %d scaffolds, want none", held, pool.Scaffolds())
	}
}

// TestSnapshotBaseRSS is the COMPLEXOBJ_RSS smoke for the mmap base: at
// paper scale, opening every model of a snapshot as mapped bases must add
// almost no resident memory, while heap-copy bases pay the full arenas.
func TestSnapshotBaseRSS(t *testing.T) {
	if os.Getenv("COMPLEXOBJ_RSS") == "" {
		t.Skip("set COMPLEXOBJ_RSS=1 to measure RSS")
	}
	if runtime.GOOS != "linux" {
		t.Skip("RSS via /proc is Linux-only")
	}
	if !disk.CanMapBase {
		t.Skip("platform cannot map bases")
	}
	path := writeSnapshot(t, DefaultConfig())

	openAll := func(open func(string, store.Kind) (*store.SharedBase, error)) (int, int) {
		debug.FreeOSMemory()
		before, err := currentRSSKB()
		if err != nil {
			t.Fatal(err)
		}
		var bases []*store.SharedBase
		arena := 0
		for _, k := range store.AllKinds() {
			b, err := open(path, k)
			if err != nil {
				t.Fatal(err)
			}
			arena += b.ArenaBytes()
			bases = append(bases, b)
		}
		after, err := currentRSSKB()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bases {
			if err := b.Release(); err != nil {
				t.Fatal(err)
			}
		}
		return after - before, arena
	}
	mappedDelta, arenaBytes := openAll(snapshot.OpenBase)
	heapDelta, _ := openAll(snapshot.OpenBaseHeap)
	fmt.Printf("base-rss-kb arenas=%d mapped=%d heap=%d\n", arenaBytes/1024, mappedDelta, heapDelta)
	// The mapped bases must be far below both the heap copies and the raw
	// arena footprint (they fault pages in only when views touch them).
	if mappedDelta*4 > heapDelta {
		t.Errorf("mapped bases resident %d KiB, not ≪ heap bases %d KiB", mappedDelta, heapDelta)
	}
	if mappedDelta*4 > arenaBytes/1024 {
		t.Errorf("mapped bases resident %d KiB, not ≪ arena size %d KiB", mappedDelta, arenaBytes/1024)
	}
}

// TestSnapshotBasesOffHeap is the exact check behind the mapped-base RSS
// smoke: opening every model of a paper-scale snapshot as mapped bases
// adds nothing to the off-heap ledger (a mapped floor is the file's own
// pages, not an arena) and, once collected, under a tenth of the bases'
// arena bytes to the Go heap's live bytes (their decoded directories, not
// a copy of the arenas). A heap-copy base fails both.
func TestSnapshotBasesOffHeap(t *testing.T) {
	if !disk.CanMapBase {
		t.Skip("platform cannot map bases")
	}
	path := writeSnapshot(t, DefaultConfig())
	arenaBefore, heapBefore := disk.LiveArenaBytes(), heapLiveBytes()
	var bases []*store.SharedBase
	arena := int64(0)
	for _, k := range store.AllKinds() {
		b, err := snapshot.OpenBase(path, k)
		if err != nil {
			t.Fatal(err)
		}
		arena += int64(b.ArenaBytes())
		bases = append(bases, b)
	}
	arenaAdded, heapAdded := disk.LiveArenaBytes()-arenaBefore, heapLiveBytes()-heapBefore
	for _, b := range bases {
		if err := b.Release(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d bases over %d KiB of arenas: off-heap ledger +%d B, Go heap live +%d KiB", len(bases), arena>>10, arenaAdded, heapAdded>>10)
	if arenaAdded != 0 {
		t.Errorf("opening mapped bases added %d bytes to the off-heap ledger, want 0", arenaAdded)
	}
	if heapAdded*10 >= arena {
		t.Errorf("opening mapped bases added %d KiB to the live Go heap, want under a tenth of their %d KiB of arenas", heapAdded>>10, arena>>10)
	}
}

// heapLiveBytes collects and returns the Go heap's live bytes.
func heapLiveBytes() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// currentRSSKB reads VmRSS (the current resident set) in KiB.
func currentRSSKB() (int, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			return strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(rest), " kB"))
		}
	}
	return 0, fmt.Errorf("VmRSS not found in /proc/self/status")
}

// peakRSSKB reads VmHWM (the process peak resident set) in KiB.
func peakRSSKB() (int, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(rest), " kB"))
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// TestMeasureBuildsEachBaseOnce pins Measure, the cell method the matrix
// and cobench's local table share: three calls over the five models build
// the three layout bases once each, from one generated extension, and
// measure the same cells every time.
func TestMeasureBuildsEachBaseOnce(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 3
	s := New(cfg)
	defer s.Close()
	first, err := s.Measure(store.AllKinds(), cobench.AllQueries())
	if err != nil {
		t.Fatal(err)
	}
	for r := 2; r <= 3; r++ {
		again, err := s.Measure(store.AllKinds(), cobench.AllQueries())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Errorf("Measure call %d differs from the first", r)
		}
	}
	if s.bases.Built() != 3 || s.exts.Built() != 1 {
		t.Errorf("three Measure calls built %d bases from %d extensions, want 3 from 1", s.bases.Built(), s.exts.Built())
	}
	if len(first) != 5 || len(first[0]) != len(cobench.AllQueries()) || first[3][0].Model != store.NSMIndex.String() {
		t.Errorf("Measure's rows are not models × queries in order: %d rows", len(first))
	}
}

// TestIndexAblationSharesTheSuiteBases pins the index ablation as two
// cells over the suite's NSM base: after the matrix it builds no base and
// generates nothing, and on a snapshot-backed suite it maps the NSM entry
// alone, generates nothing, and measures what a loaded base measures.
func TestIndexAblationSharesTheSuiteBases(t *testing.T) {
	s := New(smallConfig())
	defer s.Close()
	if _, err := s.Matrix(); err != nil {
		t.Fatal(err)
	}
	bases, exts := s.bases.Built(), s.exts.Built()
	want, err := s.IndexAblation()
	if err != nil {
		t.Fatal(err)
	}
	if s.bases.Built() != bases || s.exts.Built() != exts {
		t.Errorf("the ablation built %d bases and %d extensions after the matrix, want none",
			s.bases.Built()-bases, s.exts.Built()-exts)
	}

	cfg := smallConfig()
	cfg.Snapshot = writeSnapshot(t, smallConfig())
	db := New(cfg)
	defer db.Close()
	got, err := db.IndexAblation()
	if err != nil {
		t.Fatal(err)
	}
	if db.exts.Built() != 0 || db.bases.Built() != 1 {
		t.Errorf("on a snapshot the ablation generated %d extensions and opened %d bases, want 0 and 1",
			db.exts.Built(), db.bases.Built())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the ablation over the snapshot differs:\n%+v\n%+v", got, want)
	}
}
