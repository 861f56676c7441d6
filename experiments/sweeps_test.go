package experiments

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"complexobj/internal/disk"
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

// TestSweepParallelDeterminism pins width independence for the sweeps:
// Figure 5, Figure 6, the buffer sweep and Table 7 produce byte-identical
// results — analytical envelopes included — for any worker count.
func TestSweepParallelDeterminism(t *testing.T) {
	shrinkSweeps(t)
	run := func(workers int) sweeps {
		cfg := smallConfig()
		cfg.Workers = workers
		s := New(cfg)
		defer s.Close()
		return runSweeps(t, fmt.Sprintf("workers=%d", workers), s)
	}
	serial := run(1)
	for _, workers := range []int{3, 8} {
		if parallel := run(workers); !reflect.DeepEqual(serial, parallel) {
			t.Errorf("workers=%d: sweeps differ from width 1:\n%+v\n%+v", workers, parallel, serial)
		}
	}
}

// TestSweepSharedBaseDeterminism is the acceptance test of the
// config-keyed base cache: every measured figure of every sweep section
// (Figure 5, Figure 6, the buffer sweep and Table 7) equals the oracle's
// private engine per cell, at width 1 and 8, both when the bases are
// loaded in place and when the default-extension bases are opened from a
// .codb snapshot (mmap'ed in place on platforms that support it) — and
// the cache builds and retains exactly the bases it should.
func TestSweepSharedBaseDeterminism(t *testing.T) {
	shrinkSweeps(t)
	o := newOracle(t, smallConfig())
	path := writeSnapshot(t, smallConfig())
	for _, snap := range []string{"", path} {
		for _, workers := range []int{1, 8} {
			label := fmt.Sprintf("snapshot=%t/workers=%d", snap != "", workers)
			cfg := smallConfig()
			cfg.Workers = workers
			cfg.Snapshot = snap
			s := New(cfg)
			got := runSweeps(t, label, s)
			o.checkSweeps(label, got)
			// The cache must actually have been shared: one base built
			// per distinct (physical layout, generator config) — DSM and
			// DASDBS-DSM are one layout, NSM and NSM+index another — far
			// fewer than the number of sweep cells, and the same number
			// however the workers were scheduled. With the shrunk axes: 3
			// default-gen layouts (matrix via Table 7; the Figure 5
			// maxSee=15 column and the whole buffer sweep reuse them), 2x2
			// non-default Figure 5 columns, 2x2 Figure 6 sizes, 3 skew
			// layouts.
			cells := len(got.fig5)*3 + len(got.fig6) + len(got.buf) + len(got.t7) + 5*7
			if want := 3 + 4 + 4 + 3; s.bases.Built() != want {
				t.Errorf("%s: base cache built %d bases, want %d (of %d measured cells)",
					label, s.bases.Built(), want, cells)
			}
			// ... but only the pinned default-configuration bases are
			// retained: every one-off sweep configuration was acquired
			// scoped and dropped when the last cell of its configuration
			// finished.
			if want := 3; s.bases.Len() != want {
				t.Errorf("%s: base cache retains %d entries, want %d (scoped sweep bases must be released)",
					label, s.bases.Len(), want)
			}
			// The extension cache retains only the suite's own
			// extension (the Figure 5 default column generates it even
			// over a snapshot). It generated that one, Figure 5's two
			// other columns (held for the whole figure), and every other
			// non-default extension at most once per overlapping set of
			// cell groups (2 Figure 6 sizes x 2 layouts, 1 skew config x
			// 3 layouts): between 6 generations under full overlap and
			// 10 under none.
			if n := s.exts.Len(); n != 1 {
				t.Errorf("%s: extension cache retains %d entries, want 1 (the suite's own)", label, n)
			}
			if n := s.exts.Built(); n < 6 || n > 10 {
				t.Errorf("%s: extension cache built %d extensions, want between 6 (full overlap) and 10 (none)", label, n)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestMatrixFromSnapshot asserts the cotables -db path: a matrix measured
// on views of bases opened from a .codb snapshot equals the oracle's
// freshly generated and loaded private engines without generating
// anything itself, and mismatched snapshots are rejected. (Width 8 over
// the same file: TestMatrixSharedBaseFromSnapshot.)
func TestMatrixFromSnapshot(t *testing.T) {
	path := writeSnapshot(t, smallConfig())
	cfg := smallConfig()
	cfg.Workers = 1
	cfg.Snapshot = path
	s := New(cfg)
	defer s.Close()
	got, err := s.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	newOracle(t, smallConfig()).checkMatrix("snapshot/workers=1", got)
	if n := s.exts.Built(); n != 0 {
		t.Errorf("the snapshot-backed matrix generated %d extensions, want 0", n)
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

	// So must a snapshot of another page size, refused by the snapshot
	// reader before any view of it opens, naming the file and both sizes.
	// No writer of this program produces one, so it is built by hand: a
	// well-formed version-3 container of the suite's extension whose one
	// DSM entry says otherPageSize.
	const otherPageSize = 2 * disk.DefaultPageSize
	genJSON, err := json.Marshal(smallConfig().Gen)
	if err != nil {
		t.Fatal(err)
	}
	raw := binary.BigEndian.AppendUint16([]byte("CODB"), snapshot.Version)
	raw = binary.BigEndian.AppendUint32(raw, uint32(len(genJSON)))
	raw = append(raw, genJSON...)
	raw = binary.BigEndian.AppendUint16(raw, 1)             // one entry:
	raw = append(raw, 1<<store.DSM)                         // kinds
	raw = binary.BigEndian.AppendUint32(raw, otherPageSize) // page size
	raw = binary.BigEndian.AppendUint32(raw, 1)             // pages
	raw = binary.BigEndian.AppendUint64(raw, 0)             // WAL watermark
	raw = binary.BigEndian.AppendUint64(raw, 0)             // generation
	raw = binary.BigEndian.AppendUint32(raw, 0)             // meta bytes
	raw = append(raw, make([]byte, otherPageSize)...)       // arena
	pagePath := filepath.Join(t.TempDir(), "pages.codb")
	if err := os.WriteFile(pagePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	pageCfg := smallConfig()
	pageCfg.Snapshot = pagePath
	pageSuite := New(pageCfg)
	defer pageSuite.Close()
	_, err = pageSuite.Matrix()
	if !errors.Is(err, snapshot.ErrPageSize) {
		t.Fatalf("snapshot of another page size: %v, want ErrPageSize", err)
	}
	for _, want := range []string{pagePath, strconv.Itoa(disk.DefaultPageSize), strconv.Itoa(otherPageSize)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("page-size refusal %q does not name %s", err, want)
		}
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
