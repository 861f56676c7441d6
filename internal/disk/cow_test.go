package disk

import (
	"bytes"
	"os"
	"testing"
)

// testBase builds a BaseArena of n pages with a recognizable per-byte
// pattern, plus a pristine copy for immutability checks.
func testBase(n int) (*BaseArena, []byte) {
	data := make([]byte, DefaultPageSize*n)
	for i := range data {
		data[i] = byte((i*7 + i/DefaultPageSize) % 251)
	}
	pristine := append([]byte(nil), data...)
	return NewBaseArena(data), pristine
}

// TestCOWOverlayNeverMutatesBase is the central safety regression of the
// shared-arena design: writes through one COW view must never reach the
// base or any sibling view, no matter whether they are full-page,
// partial-range, or beyond-the-base writes.
func TestCOWOverlayNeverMutatesBase(t *testing.T) {
	const ps = DefaultPageSize
	base, pristine := testBase(8)

	a, err := Open(NewCOWBackend(base))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(NewCOWBackend(base))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.NumPages() != 8 || b.NumPages() != 8 {
		t.Fatalf("views adopted %d/%d pages, want 8", a.NumPages(), b.NumPages())
	}

	// Full-page write through view a.
	img := bytes.Repeat([]byte{0xEE}, ps)
	if err := a.WriteRun(3, [][]byte{img}); err != nil {
		t.Fatal(err)
	}
	// Partial write through the backend (sub-page granularity).
	if err := a.Backend().WriteAt([]byte("partial"), 5*ps+100); err != nil {
		t.Fatal(err)
	}
	// Growth past the base plus a write into the new tail.
	if _, err := a.Allocate(2); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteRun(9, [][]byte{img}); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(base.Bytes(), pristine) {
		t.Fatal("writes through a COW view reached the shared base")
	}
	for pg := 0; pg < 8; pg++ {
		got, err := readCopy(b, PageID(pg), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[0], pristine[pg*ps:(pg+1)*ps]) {
			t.Fatalf("sibling view observes overlay write on page %d", pg)
		}
	}

	// The writing view observes its own overlay, base for the rest.
	got, err := readCopy(a, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], img) {
		t.Fatal("view does not observe its own full-page write")
	}
	got, err = readCopy(a, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), pristine[5*ps:6*ps]...)
	copy(want[100:], "partial")
	if !bytes.Equal(got[0], want) {
		t.Fatal("partial write did not preserve the rest of the base page")
	}
	got, err = readCopy(a, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], pristine[2*ps:3*ps]) {
		t.Fatal("untouched page does not read through to the base")
	}

	// Close releases only the overlay; the base (and sibling) live on.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base.Bytes(), pristine) {
		t.Fatal("Close damaged the shared base")
	}
	if got, err := readCopy(b, 3, 1); err != nil || !bytes.Equal(got[0], pristine[3*ps:4*ps]) {
		t.Fatalf("sibling view broken after Close: %v", err)
	}
}

// TestCOWGrownPagesReadZero asserts pages allocated past the base read as
// zero before their first write — including into dirty recycled buffers.
func TestCOWGrownPagesReadZero(t *testing.T) {
	const ps = DefaultPageSize
	base, _ := testBase(2)
	d, err := Open(NewCOWBackend(base))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Allocate(3); err != nil {
		t.Fatal(err)
	}
	dirty := bytes.Repeat([]byte{0xFF}, ps)
	views, borrowed := make([][]byte, 1), make([]bool, 1)
	if err := d.ReadRunShared(4, views, borrowed, func() []byte { return dirty }); err != nil {
		t.Fatal(err)
	}
	for i, v := range views[0] {
		if v != 0 {
			t.Fatalf("grown page byte %d = %d, want 0", i, v)
		}
	}
}

// TestCOWStats pins the memory-accounting hook the matrix memory checks
// rely on: overlay usage counts materialized pages only.
func TestCOWStats(t *testing.T) {
	const ps = DefaultPageSize
	base, _ := testBase(10)
	b := NewCOWBackend(base)
	d, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	st, ok := COWStatsOf(b)
	if !ok {
		t.Fatal("COWStatsOf rejected a COW backend")
	}
	if st.BaseBytes != 10*ps || st.OverlayPages != 0 || st.OverlayBytes != 0 {
		t.Fatalf("fresh view stats: %+v", st)
	}

	// Reads never materialize overlay pages.
	if _, err := readCopy(d, 0, 10); err != nil {
		t.Fatal(err)
	}
	if st, _ = COWStatsOf(b); st.OverlayPages != 0 {
		t.Fatalf("reads materialized %d overlay pages", st.OverlayPages)
	}

	img := make([]byte, ps)
	if err := d.WriteRun(7, [][]byte{img, img}); err != nil {
		t.Fatal(err)
	}
	if st, _ = COWStatsOf(b); st.OverlayPages != 2 || st.OverlayBytes != 2*ps {
		t.Fatalf("after 2 page writes: %+v", st)
	}
	// Rewriting the same page does not grow the overlay.
	if err := d.WriteRun(7, [][]byte{img}); err != nil {
		t.Fatal(err)
	}
	if st, _ = COWStatsOf(b); st.OverlayPages != 2 {
		t.Fatalf("rewrite grew overlay: %+v", st)
	}

	if _, ok := COWStatsOf(NewMemBackend()); ok {
		t.Error("COWStatsOf accepted a mem backend")
	}
}

// TestBaseArenaRefcount pins the base lifecycle contract: every COW view
// holds one reference, the creator holds one, and the backing storage is
// released exactly when the last of them goes — never under a live view,
// even if the owner released its handle first.
func TestBaseArenaRefcount(t *testing.T) {
	const ps = DefaultPageSize
	base, pristine := testBase(4)
	if base.Refs() != 1 {
		t.Fatalf("fresh base refs = %d, want 1 (creator)", base.Refs())
	}
	v1 := NewCOWBackend(base)
	v2 := NewCOWBackend(base)
	if base.Refs() != 3 {
		t.Fatalf("refs with 2 views = %d, want 3", base.Refs())
	}
	if err := v1.Close(); err != nil {
		t.Fatal(err)
	}
	// Owner drops its handle while a view is still open: the base must
	// stay readable through the remaining view.
	if err := base.Release(); err != nil {
		t.Fatal(err)
	}
	if base.Refs() != 1 {
		t.Fatalf("refs after close+release = %d, want 1", base.Refs())
	}
	got := make([]byte, ps)
	if err := v2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pristine[:ps]) {
		t.Fatal("surviving view cannot read the base")
	}
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}
	if base.Refs() != 0 || base.Bytes() != nil {
		t.Fatalf("base not released after last view: refs=%d bytes=%v", base.Refs(), base.Bytes() != nil)
	}
	// Over-release is a bug and must be reported, not ignored.
	if err := base.Release(); err == nil {
		t.Error("over-release not reported")
	}
	// Double Close of a view must not double-release the base.
	if err := v1.Close(); err != nil {
		t.Errorf("double view close: %v", err)
	}
	// A nil base is a valid empty base for the whole lifecycle.
	var nilBase *BaseArena
	if nilBase.Retain() != nil || nilBase.Release() != nil || nilBase.Refs() != 0 || nilBase.Mapped() {
		t.Error("nil base lifecycle not inert")
	}
	grown, _ := nilBase.Promote(2, map[int][]byte{1: bytes.Repeat([]byte{7}, ps)})
	if grown.Len() != 2*ps || grown.Refs() != 1 || grown.Bytes()[ps] != 7 || grown.Bytes()[0] != 0 {
		t.Error("promoting a nil base does not yield the images over zeros")
	}
	if err := grown.Release(); err != nil {
		t.Fatal(err)
	}

	// Generations share one floor, and only the floor is counted: each
	// promoted generation's owner holds one reference, views on any
	// generation hold one each, and the storage goes with the last of
	// them — whichever generation that reference was taken through.
	floor, pristine := testBase(4)
	img := bytes.Repeat([]byte{0xC3}, ps)
	gen1, _ := floor.Promote(4, map[int][]byte{1: img})
	gen2, _ := gen1.Promote(4, map[int][]byte{2: img})
	onGen1 := NewCOWBackend(gen1)
	if floor.Refs() != 4 || gen1.Refs() != 4 || gen2.Refs() != 4 {
		t.Fatalf("refs across generations = %d/%d/%d, want 4 everywhere (3 owners + 1 view)", floor.Refs(), gen1.Refs(), gen2.Refs())
	}
	for _, g := range []*BaseArena{floor, gen1, gen2} {
		if err := g.Release(); err != nil {
			t.Fatal(err)
		}
	}
	// Only the view is left, on a superseded generation: it still reads
	// that generation — floor pages and committed image alike.
	if err := onGen1.ReadAt(got, 0); err != nil || !bytes.Equal(got, pristine[:ps]) {
		t.Fatalf("floor page unreadable through the last view: %v", err)
	}
	if err := onGen1.ReadAt(got, ps); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("committed page unreadable through the last view: %v", err)
	}
	if err := onGen1.ReadAt(got, 2*ps); err != nil || !bytes.Equal(got, pristine[2*ps:3*ps]) {
		t.Fatalf("view of generation 1 observes generation 2: %v", err)
	}
	if floor.Bytes() == nil {
		t.Fatal("floor released under a live view of a promoted generation")
	}
	if err := onGen1.Close(); err != nil {
		t.Fatal(err)
	}
	if floor.Refs() != 0 || floor.Bytes() != nil {
		t.Fatalf("floor not released with the last view: refs=%d", floor.Refs())
	}
	if err := gen2.Release(); err == nil {
		t.Error("over-release through a promoted generation not reported")
	}
}

// TestMappedBaseArena pins the mmap-backed base variant against the heap
// one: same bytes at an unaligned file offset, immutable under overlay
// writes, and the mapping is released with the last reference. On
// platforms without mmap support the portable fallback must behave
// identically apart from Mapped().
func TestMappedBaseArena(t *testing.T) {
	const ps = DefaultPageSize
	_, pristine := testBase(8)
	// Bury the arena at an intentionally page-misaligned offset, as in a
	// .codb container where variable-length metadata precedes the arena.
	const off = 4096 + 123
	file := append(make([]byte, off), pristine...)
	file = append(file, 0xAB, 0xCD) // trailing bytes beyond the arena
	path := t.TempDir() + "/base.bin"
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := MapBaseArena(f, off, len(pristine))
	if err != nil {
		t.Fatal(err)
	}
	if base.Mapped() != CanMapBase {
		t.Errorf("Mapped() = %v, CanMapBase = %v", base.Mapped(), CanMapBase)
	}
	if base.Len() != len(pristine) || !bytes.Equal(base.Bytes(), pristine) {
		t.Fatal("mapped base does not expose the file region")
	}

	// A view over the mapped base behaves exactly like over a heap base:
	// overlay writes stick to the view, the base (and file) are untouched.
	d, err := Open(NewCOWBackend(base))
	if err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte{0x5A}, ps)
	if err := d.WriteRun(2, [][]byte{img}); err != nil {
		t.Fatal(err)
	}
	if err := d.Backend().WriteAt([]byte("edge"), 6*ps+200); err != nil {
		t.Fatal(err)
	}
	if got, err := readCopy(d, 2, 1); err != nil || !bytes.Equal(got[0], img) {
		t.Fatalf("view does not observe its overlay write: %v", err)
	}
	if !bytes.Equal(base.Bytes(), pristine) {
		t.Fatal("overlay write reached the mapped base")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Promotion keeps the mapping as the floor of every later generation:
	// still mapped, committed pages on the heap, and unmapped exactly
	// when the last generation and the last view over it are gone —
	// never earlier.
	gen1, _ := base.Promote(8, map[int][]byte{2: img})
	gen2, _ := gen1.Promote(9, map[int][]byte{5: img})
	if gen2.Mapped() != CanMapBase || gen2.DeltaPages() != 2 {
		t.Errorf("promoted generation: Mapped() = %v, DeltaPages() = %d, want %v and 2", gen2.Mapped(), gen2.DeltaPages(), CanMapBase)
	}
	want := append(append([]byte(nil), pristine...), make([]byte, ps)...)
	copy(want[2*ps:], img)
	copy(want[5*ps:], img)
	if !bytes.Equal(gen2.Bytes(), want) {
		t.Fatal("promoted generation over a mapped floor reads wrong bytes")
	}
	view := NewCOWBackend(gen2)
	for _, g := range []*BaseArena{base, gen1, gen2} {
		if err := g.Release(); err != nil {
			t.Fatal(err)
		}
		if base.Bytes() == nil {
			t.Fatal("mapping dropped while a view still reads through it")
		}
	}
	page := make([]byte, ps)
	if err := view.ReadAt(page, 7*ps); err != nil || !bytes.Equal(page, pristine[7*ps:]) {
		t.Fatalf("mapped floor unreadable through the last view: %v", err)
	}
	if CanMapBase && base.fl.unmap == nil {
		t.Fatal("mapping already released before its last reference went")
	}
	if err := view.Close(); err != nil {
		t.Fatal(err)
	}
	if base.Refs() != 0 || base.Bytes() != nil || base.fl.unmap != nil {
		t.Fatal("mapped base not released with the last reference")
	}
	if err := gen1.Release(); err == nil {
		t.Error("over-release of an unmapped floor not reported")
	}
	// The snapshot file itself must be byte-identical after the whole
	// view lifecycle (the mapping is read-only).
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, file) {
		t.Fatal("view lifecycle modified the backing file")
	}

	// Range validation: mapping past EOF must fail up front, not fault.
	if _, err := MapBaseArena(f, int64(len(file))-10, 20); err == nil {
		t.Error("mapping past EOF accepted")
	}
	if _, err := MapBaseArena(f, -1, 10); err == nil {
		t.Error("negative offset accepted")
	}
	// A zero-length region is a valid empty base.
	empty, err := MapBaseArena(f, off, 0)
	if err != nil || empty.Len() != 0 {
		t.Errorf("empty region: len=%d err=%v", empty.Len(), err)
	}
}
