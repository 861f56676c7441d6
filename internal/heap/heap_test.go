package heap

import (
	"bytes"
	"errors"
	"testing"

	"complexobj/internal/buffer"
	"complexobj/internal/disk"
	"complexobj/internal/page"
	"complexobj/internal/wire"
	"complexobj/internal/xrand"
)

// get copies the record at rid out of its frame through View.
func get(h *Heap, rid RID) ([]byte, error) {
	var out []byte
	err := h.View(rid, func(rec []byte) error { out = bytes.Clone(rec); return nil })
	return out, err
}

func newHeap(t *testing.T, poolPages int) (*disk.Disk, *buffer.Pool, *Heap) {
	t.Helper()
	d := disk.New(disk.DefaultPageSize)
	p := buffer.New(d, poolPages, buffer.LRU)
	return d, p, New(d, p, "test")
}

func rec(b byte, n int) []byte {
	r := make([]byte, n)
	for i := range r {
		r[i] = b
	}
	return r
}

func TestInsertGetRoundTrip(t *testing.T) {
	_, _, h := newHeap(t, 16)
	r1, err := h.Insert(rec(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Insert(rec(2, 200))
	if err != nil {
		t.Fatal(err)
	}
	g1, err := get(h, r1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := get(h, r2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g1, rec(1, 100)) || !bytes.Equal(g2, rec(2, 200)) {
		t.Error("round trip mismatch")
	}
	if h.NumRecords() != 2 || h.Bytes() != 300 {
		t.Errorf("counters: records=%d bytes=%d", h.NumRecords(), h.Bytes())
	}
}

func TestRecordsClusterSequentially(t *testing.T) {
	_, _, h := newHeap(t, 16)
	// 170-byte records: k=11 per page (paper Table 2 NSM_Connection).
	var rids []RID
	for i := 0; i < 25; i++ {
		r, err := h.Insert(rec(byte(i), 170))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, r)
	}
	if h.NumPages() != 3 {
		t.Fatalf("25 records of 170B on %d pages, want 3 (k=11)", h.NumPages())
	}
	// First 11 on page one, next 11 on page two, remainder on page three.
	for i, r := range rids {
		wantPage := h.Pages()[i/11]
		if r.Page != wantPage {
			t.Errorf("record %d on page %d, want %d", i, r.Page, wantPage)
		}
	}
	if k := h.TuplesPerPage(); k < 8 || k > 11 {
		t.Errorf("TuplesPerPage = %f", k)
	}
	if h.AvgRecordSize() != 170 {
		t.Errorf("AvgRecordSize = %f", h.AvgRecordSize())
	}
}

func TestInsertTooLarge(t *testing.T) {
	_, _, h := newHeap(t, 8)
	if _, err := h.Insert(rec(1, page.Capacity(disk.DefaultPageSize)+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized insert err = %v", err)
	}
}

func TestUpdateInPlace(t *testing.T) {
	_, pool, h := newHeap(t, 8)
	r, _ := h.Insert(rec(1, 100))
	if err := h.Update(r, rec(9, 100)); err != nil {
		t.Fatal(err)
	}
	g, _ := get(h, r)
	if !bytes.Equal(g, rec(9, 100)) {
		t.Error("update lost")
	}
	// The dirty page must be written on flush.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateResizeWithinPage(t *testing.T) {
	_, _, h := newHeap(t, 8)
	r, _ := h.Insert(rec(1, 100))
	if err := h.Update(r, rec(2, 150)); err != nil {
		t.Fatal(err)
	}
	g, _ := get(h, r)
	if !bytes.Equal(g, rec(2, 150)) {
		t.Error("grown record mismatch")
	}
	if h.Bytes() != 150 {
		t.Errorf("Bytes = %d after resize, want 150", h.Bytes())
	}
}

func TestUpdateBeyondPageFails(t *testing.T) {
	_, _, h := newHeap(t, 8)
	var rids []RID
	for i := 0; i < 11; i++ {
		r, err := h.Insert(rec(1, 170))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, r)
	}
	if err := h.Update(rids[0], rec(2, 1900)); err == nil {
		t.Error("cross-page growth accepted")
	}
}

func TestGetBadRID(t *testing.T) {
	_, _, h := newHeap(t, 8)
	h.Insert(rec(1, 10))
	if _, err := get(h, RID{Page: 0, Slot: 99}); err == nil {
		t.Error("bad slot accepted")
	}
}

func TestScanOrderAndContent(t *testing.T) {
	_, _, h := newHeap(t, 16)
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := h.Insert(rec(byte(i), 170)); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	err := h.Scan(func(rid RID, r []byte) bool {
		if r[0] != byte(i) {
			t.Fatalf("scan out of order at %d: got %d", i, r[0])
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Errorf("scan visited %d of %d", i, n)
	}
}

func TestScanEarlyStop(t *testing.T) {
	_, _, h := newHeap(t, 16)
	for i := 0; i < 30; i++ {
		h.Insert(rec(byte(i), 170))
	}
	count := 0
	h.Scan(func(RID, []byte) bool { count++; return count < 5 })
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestScanIsOnePageFixPerPage(t *testing.T) {
	d, pool, h := newHeap(t, 16)
	for i := 0; i < 33; i++ { // 3 pages at k=11
		h.Insert(rec(1, 170))
	}
	if err := pool.Reset(); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	pool.ResetStats()
	h.Scan(func(RID, []byte) bool { return true })
	s := d.Stats()
	if s.PagesRead != 3 || s.ReadCalls != 3 {
		t.Errorf("scan: %d pages in %d calls, want 3 in 3 (single page per call)", s.PagesRead, s.ReadCalls)
	}
	if pool.Fixes() != 3 {
		t.Errorf("scan fixes = %d, want 3", pool.Fixes())
	}
}

func TestGetCostsOnePageRead(t *testing.T) {
	d, pool, h := newHeap(t, 16)
	var rids []RID
	for i := 0; i < 22; i++ {
		r, _ := h.Insert(rec(byte(i), 170))
		rids = append(rids, r)
	}
	pool.Reset()
	d.ResetStats()
	if _, err := get(h, rids[5]); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.PagesRead != 1 || s.ReadCalls != 1 {
		t.Errorf("Get: %v, want 1 page / 1 call", s)
	}
	// Second Get on same page: buffer hit, no disk I/O.
	if _, err := get(h, rids[6]); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.PagesRead != 1 {
		t.Errorf("clustered Get caused re-read: %v", s)
	}
}

func TestViewAvoidsCopy(t *testing.T) {
	_, _, h := newHeap(t, 8)
	r, _ := h.Insert(rec(7, 50))
	called := false
	err := h.View(r, func(b []byte) error {
		called = true
		if !bytes.Equal(b, rec(7, 50)) {
			t.Error("view content mismatch")
		}
		return nil
	})
	if err != nil || !called {
		t.Errorf("View err=%v called=%v", err, called)
	}
}

func TestHeapWorksUnderTinyPool(t *testing.T) {
	// Pool smaller than the heap: inserts and scans must still work, with
	// evictions writing dirty pages.
	d, pool, h := newHeap(t, 2)
	const n = 60
	var rids []RID
	for i := 0; i < n; i++ {
		r, err := h.Insert(rec(byte(i), 170))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, r)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i, r := range rids {
		g, err := get(h, r)
		if err != nil {
			t.Fatal(err)
		}
		if g[0] != byte(i) {
			t.Fatalf("record %d corrupted after evictions", i)
		}
	}
	if d.Stats().PagesWritten == 0 {
		t.Error("no write-back happened despite pool overflow")
	}
}

func TestRandomInsertUpdateAgainstShadow(t *testing.T) {
	_, pool, h := newHeap(t, 4)
	rng := xrand.New(31)
	type entry struct {
		rid RID
		val []byte
	}
	var entries []entry
	for op := 0; op < 2000; op++ {
		if len(entries) == 0 || rng.Bool(0.6) {
			n := 20 + rng.Intn(400)
			v := rec(byte(rng.Intn(256)), n)
			rid, err := h.Insert(v)
			if err != nil {
				t.Fatal(err)
			}
			entries = append(entries, entry{rid, v})
		} else {
			i := rng.Intn(len(entries))
			v := rec(byte(rng.Intn(256)), len(entries[i].val))
			if err := h.Update(entries[i].rid, v); err != nil {
				t.Fatal(err)
			}
			entries[i].val = v
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		g, err := get(h, e.rid)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if !bytes.Equal(g, e.val) {
			t.Fatalf("entry %d content mismatch", i)
		}
	}
	if h.NumRecords() != len(entries) {
		t.Errorf("NumRecords = %d, want %d", h.NumRecords(), len(entries))
	}
}

func TestEmptyHeap(t *testing.T) {
	_, _, h := newHeap(t, 4)
	if h.NumPages() != 0 || h.NumRecords() != 0 || h.AvgRecordSize() != 0 || h.TuplesPerPage() != 0 {
		t.Error("empty heap has non-zero stats")
	}
	if err := h.Scan(func(RID, []byte) bool { return true }); err != nil {
		t.Errorf("scan on empty heap: %v", err)
	}
}

func TestDelete(t *testing.T) {
	_, pool, h := newHeap(t, 8)
	r1, _ := h.Insert(rec(1, 170))
	r2, _ := h.Insert(rec(2, 170))
	if err := h.Delete(r1); err != nil {
		t.Fatal(err)
	}
	if h.NumRecords() != 1 || h.Bytes() != 170 {
		t.Errorf("counters after delete: records=%d bytes=%d", h.NumRecords(), h.Bytes())
	}
	if _, err := get(h, r1); err == nil {
		t.Error("deleted record still readable")
	}
	if g, err := get(h, r2); err != nil || g[0] != 2 {
		t.Error("sibling record damaged")
	}
	if err := h.Delete(r1); err == nil {
		t.Error("double delete accepted")
	}
	// Deleted space is reusable on the same page.
	if _, err := h.Insert(rec(3, 170)); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Scan skips deleted records.
	count := 0
	h.Scan(func(RID, []byte) bool { count++; return true })
	if count != 2 {
		t.Errorf("scan visited %d records, want 2", count)
	}
}

// TestAttachSharesUntilWritten pins the shared-directory contract: a heap
// attached to a decoded state reads through it, reports Changed exactly
// when its own AppendState stops matching, and never writes what it
// attached to — whatever it and a second attached heap do. (The device
// keeps every step's writes; only the bookkeeping is under test.)
func TestAttachSharesUntilWritten(t *testing.T) {
	d, p, loaded := newHeap(t, 16)
	var rids []RID
	for i := 0; i < 40; i++ {
		rid, err := loaded.Insert(rec(byte(i), 150))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	blob := loaded.AppendState(nil)
	dir := New(nil, nil, "directory") // decoded once, no device
	if err := dir.RestoreState(wire.NewReader(blob)); err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		name    string
		changes bool
		do      func(h *Heap) error
	}{
		{"same-length update", false, func(h *Heap) error { return h.Update(rids[3], rec(0xAA, 150)) }},
		{"resizing update", true, func(h *Heap) error { return h.Update(rids[3], rec(0xAA, 90)) }},
		{"delete", true, func(h *Heap) error { return h.Delete(rids[5]) }},
		{"insert into the tail page", true, func(h *Heap) error { _, err := h.Insert(rec(1, 10)); return err }},
		{"inserts appending pages", true, func(h *Heap) error {
			for i := 0; i < 30; i++ {
				if _, err := h.Insert(rec(2, 900)); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	a, b := New(d, p, "a"), New(d, p, "b")
	for _, st := range steps {
		a.Attach(dir)
		b.Attach(dir)
		if a.Changed() || !bytes.Equal(a.AppendState(nil), blob) {
			t.Fatalf("%s: a freshly attached heap differs from its directory", st.name)
		}
		if err := st.do(a); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if a.Changed() != st.changes {
			t.Errorf("%s: Changed = %v, want %v", st.name, a.Changed(), st.changes)
		}
		if same := bytes.Equal(a.AppendState(nil), blob); same == a.Changed() {
			t.Errorf("%s: Changed = %v but state equals the directory's: %v", st.name, a.Changed(), same)
		}
		if b.Changed() || !bytes.Equal(b.AppendState(nil), blob) || !bytes.Equal(dir.AppendState(nil), blob) {
			t.Fatalf("%s on one heap reached its sibling or the directory", st.name)
		}
	}
}
