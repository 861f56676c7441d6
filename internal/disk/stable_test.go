package disk

import (
	"bytes"
	"testing"
)

// stableDevices builds one device per zero-copy backend kind. The cow
// device sits over a caller-visible base arena so tests can check
// aliasing and base integrity.
func stableDevices(t *testing.T) map[string]*Disk {
	t.Helper()
	// The cow base matches the 4 pages TestStablePageSemantics allocates,
	// so its out-of-range cases sit outside the backend arena for every
	// backend kind (larger allocations simply grow the overlay).
	base := NewBaseArena(make([]byte, 4*DefaultPageSize))
	cow, err := Open(NewCOWBackend(base))
	if err != nil {
		t.Fatal(err)
	}
	devs := map[string]*Disk{
		"mem": New(),
		"cow": cow,
	}
	for _, d := range devs {
		t.Cleanup(func() { d.Close() })
	}
	return devs
}

// TestStablePageSemantics pins the StablePager capability on every
// backend that implements it: in-range page-aligned requests return a
// read-only alias of the page bytes, out-of-range and page-spanning
// requests return false.
func TestStablePageSemantics(t *testing.T) {
	const ps = DefaultPageSize
	for name, d := range stableDevices(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := d.Allocate(4); err != nil {
				t.Fatal(err)
			}
			want := bytes.Repeat([]byte{0xAB}, ps)
			if err := d.WriteRun(2, [][]byte{want}); err != nil {
				t.Fatal(err)
			}
			sp, ok := d.Backend().(StablePager)
			if !ok {
				t.Fatalf("%T does not implement StablePager", d.Backend())
			}
			s, ok := sp.StablePage(2*ps, ps)
			if !ok {
				t.Fatal("StablePage refused an in-range page")
			}
			if !bytes.Equal(s, want) {
				t.Error("StablePage bytes differ from the written page")
			}
			// A later write through the device must be visible through the
			// alias (it is a view, not a snapshot).
			want2 := bytes.Repeat([]byte{0xCD}, ps)
			if err := d.WriteRun(2, [][]byte{want2}); err != nil {
				t.Fatal(err)
			}
			s2, ok := sp.StablePage(2*ps, ps)
			if !ok || !bytes.Equal(s2, want2) {
				t.Error("StablePage after rewrite does not observe the new bytes")
			}
			for _, bad := range [][2]int{
				{-ps, ps},          // negative offset
				{4 * ps, ps},       // past the end
				{3*ps + 1, ps},     // spans two pages (cow) / past end by 1
				{2 * ps, 0},        // empty
				{2 * ps, -1},       // negative length
				{100 * ps, ps},     // far out of range
				{2 * ps, 100 * ps}, // run longer than the device
			} {
				if _, ok := sp.StablePage(bad[0], bad[1]); ok {
					t.Errorf("StablePage(%d, %d) accepted an invalid range", bad[0], bad[1])
				}
			}
		})
	}
}

// TestStablePageCOWAliasing pins the two cow cases: a non-materialized
// page aliases the shared base arena, a materialized page aliases its
// private overlay image — and writing through the overlay never moves
// the base.
func TestStablePageCOWAliasing(t *testing.T) {
	const ps = DefaultPageSize
	baseData := make([]byte, 8*ps)
	for i := range baseData {
		baseData[i] = byte(i % 251)
	}
	pristine := append([]byte(nil), baseData...)
	base := NewBaseArena(baseData)
	d, err := Open(NewCOWBackend(base))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sp := d.Backend().(StablePager)

	// Clean page: the stable slice is the base arena itself.
	s, ok := sp.StablePage(3*ps, ps)
	if !ok {
		t.Fatal("StablePage refused a clean base page")
	}
	if &s[0] != &base.Bytes()[3*ps] {
		t.Error("clean page does not alias the base arena")
	}

	// Materialize page 3 in the overlay; the stable slice must flip to
	// the overlay image and the base must stay pristine.
	img := bytes.Repeat([]byte{0x5A}, ps)
	if err := d.WriteRun(3, [][]byte{img}); err != nil {
		t.Fatal(err)
	}
	s, ok = sp.StablePage(3*ps, ps)
	if !ok {
		t.Fatal("StablePage refused a materialized page")
	}
	if &s[0] == &base.Bytes()[3*ps] {
		t.Error("materialized page still aliases the base")
	}
	if !bytes.Equal(s, img) {
		t.Error("materialized page does not show the overlay image")
	}
	if !bytes.Equal(base.Bytes(), pristine) {
		t.Fatal("overlay write mutated the shared base")
	}
}

// TestReadRunSharedBorrowsStablePages pins that a stable backend shares
// every page of a run — no copy buffer taken — for one counted call, and
// that the borrowed views show the written bytes.
func TestReadRunSharedBorrowsStablePages(t *testing.T) {
	const ps = DefaultPageSize
	for name, d := range stableDevices(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := d.Allocate(8); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if err := d.WriteRun(PageID(i), [][]byte{bytes.Repeat([]byte{byte(i + 1)}, ps)}); err != nil {
					t.Fatal(err)
				}
			}
			d.ResetStats()
			views := make([][]byte, 4)
			borrowed := make([]bool, 4)
			grabbed := 0
			getBuf := func() []byte { grabbed++; return make([]byte, ps) }
			if err := d.ReadRunShared(2, views, borrowed, getBuf); err != nil {
				t.Fatal(err)
			}
			if got := d.Stats(); got.ReadCalls != 1 || got.PagesRead != 4 {
				t.Errorf("shared read counters %+v, want 1 call / 4 pages", got)
			}
			for i := range views {
				if !bytes.Equal(views[i], bytes.Repeat([]byte{byte(i + 3)}, ps)) {
					t.Errorf("page %d: shared bytes differ from the written page", i+2)
				}
				if !borrowed[i] {
					t.Errorf("page %d not borrowed from a stable backend", i+2)
				}
			}
			if grabbed != 0 {
				t.Errorf("stable backend still took %d copy buffers", grabbed)
			}
		})
	}
}

// opaque hides every optional capability of a backend (StablePager,
// reservation), forcing the buffered copy path: interface embedding
// promotes only Backend's method set.
type opaque struct{ Backend }

// TestReadRunSharedCopyFallback pins the fallback: a backend without the
// StablePager capability serves every page through getBuf copies with
// borrowed = false, same counters, same bytes.
func TestReadRunSharedCopyFallback(t *testing.T) {
	const ps = DefaultPageSize
	d := closeAtEnd(t, NewWithBackend(opaque{NewMemBackend()}))
	if _, err := d.Allocate(4); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{7}, ps)
	if err := d.WriteRun(1, [][]byte{want}); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	views := make([][]byte, 2)
	borrowed := []bool{true, true} // must be cleared by the call
	grabbed := 0
	if err := d.ReadRunShared(1, views, borrowed, func() []byte { grabbed++; return make([]byte, ps) }); err != nil {
		t.Fatal(err)
	}
	if grabbed != 2 {
		t.Errorf("opaque backend took %d buffers, want 2", grabbed)
	}
	if borrowed[0] || borrowed[1] {
		t.Error("opaque backend produced borrowed views")
	}
	if !bytes.Equal(views[0], want) {
		t.Error("copied view bytes differ")
	}
	st := d.Stats()
	if st.ReadCalls != 1 || st.PagesRead != 2 {
		t.Errorf("accounting: %+v, want 1 call / 2 pages", st)
	}
}
