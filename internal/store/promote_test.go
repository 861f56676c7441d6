package store

import (
	"runtime"
	"testing"

	"complexobj/cobench"
)

// paperScaleBase freezes a paper-scale (N=1500) extension of kind k.
func paperScaleBase(tb testing.TB, k Kind) *SharedBase {
	tb.Helper()
	stations, err := cobench.Generate(cobench.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	m := mustNew(k, Options{BufferPages: 256})
	defer m.Engine().Close()
	if err := m.Load(stations); err != nil {
		tb.Fatal(err)
	}
	base, err := Freeze(m)
	if err != nil {
		tb.Fatal(err)
	}
	return base
}

// sixteenPages spreads a 16-page dirty set over the base's arena.
func sixteenPages(base *SharedBase) map[int][]byte {
	pages := make(map[int][]byte, 16)
	for i := 0; i < 16; i++ {
		img := make([]byte, base.PageSize())
		img[0] = byte(i + 1)
		pages[i*base.NumPages()/16] = img
	}
	return pages
}

// TestPromoteCostIsDirtyPages pins the commit path's memory cost model: a
// promote that leaves the directory unchanged allocates its dirty page
// images, the page-table leaves they fall in and the table's root — not
// the arena, not one table entry per page, not the metadata blob. 100
// sixteen-page promotes on a paper-scale DSM base, each page in a leaf of
// its own, must stay within that bound plus a small constant, PromotedBytes
// must account for it, and the blob is the one the base was built with.
func TestPromoteCostIsDirtyPages(t *testing.T) {
	base := paperScaleBase(t, DSM)
	defer base.Release()
	pages, meta := sixteenPages(base), base.Meta()
	const promotes = 100

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < promotes; i++ {
		if _, err := base.Promote(base.Gen(), base.NumPages(), nil, pages); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)

	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	// Per promote: 16 images, 16 leaves of 16 slice headers, a root of one
	// pointer per 16 pages, the generation record and size-class rounding.
	perPromote := int64(len(pages))*int64(base.PageSize()+16*24) + int64(base.NumPages()/16+1)*8 + 1024
	budget := promotes * perPromote
	t.Logf("%d promotes of 16 pages over a %d-byte arena allocated %d bytes (budget %d), PromotedBytes %d",
		promotes, base.ArenaBytes(), allocated, budget, base.PromotedBytes())
	if allocated >= budget {
		t.Errorf("%d promotes allocated %d bytes, want under %d (dirty images + their leaves + the root)", promotes, allocated, budget)
	}
	if got := base.PromotedBytes(); got <= promotes*int64(len(pages)*base.PageSize()) || got >= budget {
		t.Errorf("PromotedBytes = %d after %d promotes, want within (the images, %d)", got, promotes, budget)
	}
	if base.Gen() != promotes || base.DeltaPages() != len(pages) {
		t.Errorf("generation %d holding %d committed pages, want %d and %d", base.Gen(), base.DeltaPages(), promotes, len(pages))
	}
	if &base.Meta()[0] != &meta[0] {
		t.Error("promotes that left the directory unchanged replaced its blob")
	}

	// Steady state: the images, leaves and root each promote supersedes
	// come back to the next one once their generation drains, so
	// re-promoting the same sixteen pages allocates no page image, leaf or
	// root — only the generation record.
	runtime.ReadMemStats(&before)
	for i := 0; i < promotes; i++ {
		if _, err := base.Promote(base.Gen(), base.NumPages(), nil, pages); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	steady := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d more promotes allocated %d bytes", promotes, steady)
	if steady >= promotes*256 {
		t.Errorf("%d warm promotes allocated %d bytes, want under 256 each: the generation record, no image, leaf or root", promotes, steady)
	}
}

// TestSnapshotMetaIsExactlySized: every model's metadata encoder sizes
// its output once — the blob is O(objects) and encoded on every commit.
func TestSnapshotMetaIsExactlySized(t *testing.T) {
	stations := testExtension(t, 60)
	for _, k := range AllKinds() {
		m := loadModel(t, k, stations)
		// An update query first: the encoder must size what the model
		// holds now, not what it loaded.
		if err := m.UpdateRoots([]int32{3, 9}, func(i int32, r *cobench.RootRecord) { r.Name = "resized" }); err != nil {
			t.Fatal(err)
		}
		meta, err := m.SnapshotMeta()
		if err != nil {
			t.Fatal(err)
		}
		if len(meta) == 0 || cap(meta) != len(meta) {
			t.Errorf("%s: SnapshotMeta len %d, cap %d; want an exactly sized blob", k, len(meta), cap(meta))
		}
		m.Engine().Close()
	}
}

// BenchmarkPromote16Pages is the commit path's memory step alone: one
// sixteen-page promote, directory unchanged, over a paper-scale DSM base.
// allocs/op and B/op are gated in CI; B/op is the dirty pages, their
// table leaves and the root — not the arena, not the metadata.
func BenchmarkPromote16Pages(b *testing.B) {
	base := paperScaleBase(b, DSM)
	defer base.Release()
	pages := sixteenPages(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := base.Promote(base.Gen(), base.NumPages(), nil, pages); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitRebase is one served commit as a pooled view lives it,
// without the log: update, commit (volatile promote), then the rebase
// that returns the view to the pool on the new generation — what used to
// be a close plus a fresh view.
func BenchmarkCommitRebase(b *testing.B) {
	base := paperScaleBase(b, DSM)
	defer base.Release()
	v, err := base.NewView(Options{BufferPages: 1200})
	if err != nil {
		b.Fatal(err)
	}
	defer v.Close()
	idxs := []int32{7, 400, 901, 1333}
	names := [2]string{"rebased even", "rebased odd."}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.UpdateRoots(idxs, func(_ int32, r *cobench.RootRecord) { r.Name = names[i%2] }); err != nil {
			b.Fatal(err)
		}
		if _, err := v.Commit(nil); err != nil {
			b.Fatal(err)
		}
		if err := v.Rebase(); err != nil {
			b.Fatal(err)
		}
	}
}
