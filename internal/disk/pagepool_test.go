package disk

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// A device with no page pool makes its buffers on the heap once its free
// list is empty, takes no scaffold, and drops what it would release.
func TestPoollessDevice(t *testing.T) {
	d := NewWithBackend(NewCOWBackend(nil))
	if d.TakeScaffold() != nil {
		t.Fatal("a device with no page pool took a scaffold")
	}
	if _, err := d.Allocate(2); err != nil {
		t.Fatal(err)
	}
	b := d.NewPage()
	if len(b) != DefaultPageSize {
		t.Fatalf("the device made %d bytes, want %d", len(b), DefaultPageSize)
	}
	d.FreePage(b)
	if err := d.WriteRun(1, [][]byte{make([]byte, DefaultPageSize)}); err != nil {
		t.Fatal(err)
	}
	if img, _ := d.stable.StablePage(DefaultPageSize, DefaultPageSize); &img[0] != &b[0] {
		t.Error("the overlay did not take the page the device's list held")
	}
	d.ReleasePages(new(int))
	if len(d.pages.free) != 0 || d.backend.(*cowBackend).over != nil {
		t.Errorf("release kept %d pages and the overlay table, want a drop", len(d.pages.free))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// drainAtEnd drains p when the test ends: every page must be back.
func drainAtEnd(t *testing.T, p *PagePool) *PagePool {
	t.Cleanup(func() {
		if err := p.Drain(); err != nil {
			t.Error(err)
		}
	})
	return p
}

func TestPagePoolRecyclesLIFO(t *testing.T) {
	p := drainAtEnd(t, NewPagePool())
	a, b := p.Get(), p.Get()
	if len(a) != DefaultPageSize || len(b) != DefaultPageSize {
		t.Fatalf("pool handed out %d and %d bytes", len(a), len(b))
	}
	p.Put([][]byte{a, b})
	if got := p.Get(); &got[0] != &b[0] {
		t.Error("Get did not return the page put last")
	}
	if got := p.Get(); &got[0] != &a[0] {
		t.Error("second Get did not return the page put first")
	}
	if gets, hits, held := p.Stats(); gets != 4 || hits != 2 || held != 0 {
		t.Errorf("stats gets=%d hits=%d held=%d, want 4 2 0", gets, hits, held)
	}
	p.Put([][]byte{a, b})
}

// Pages are cut from chunks the pool maps and counts in LiveArenaBytes:
// each page is its own, capped so an append cannot reach its neighbour,
// a Put of every page cut grows nothing, and Drain unmaps the chunks only
// once every page is back.
func TestPagePoolChunks(t *testing.T) {
	const size = DefaultPageSize
	start := LiveArenaBytes()
	p := NewPagePool()
	pages := make([][]byte, chunkPages+1) // one page into a second chunk
	for i := range pages {
		b := p.Get()
		if len(b) != size || cap(b) != size {
			t.Fatalf("page %d: len %d cap %d, want both %d", i, len(b), cap(b), size)
		}
		for j := range b {
			b[j] = byte(i)
		}
		pages[i] = b
	}
	for i, b := range pages {
		for _, c := range b {
			if c != byte(i) {
				t.Fatalf("page %d reads %#x: pages overlap", i, c)
			}
		}
	}
	if got := LiveArenaBytes() - start; got != 2*chunkPages*size {
		t.Fatalf("ledger grew by %d bytes, want two chunks of %d", got, chunkPages*size)
	}
	out := pages[len(pages)-1]
	back := pages[:len(pages)-1]
	reserved := len(p.free.segs) * chunkPages
	p.Put(back)
	if got := len(p.free.segs) * chunkPages; got != reserved || reserved < len(pages) {
		t.Errorf("free list capacity %d before Put, %d after, want room for %d pages before", reserved, got, len(pages))
	}
	held := LiveArenaBytes()
	err := p.Drain()
	if err == nil || !strings.Contains(err.Error(), "1 pages still out") {
		t.Errorf("Drain with a page out: %v, want an error naming 1 page", err)
	}
	if LiveArenaBytes() != held {
		t.Errorf("a refused Drain moved the ledger from %d to %d", held, LiveArenaBytes())
	}
	p.Put([][]byte{out})
	if _, _, n := p.Stats(); n != len(pages) {
		t.Fatalf("pool holds %d pages after every page came back, want %d", n, len(pages))
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := LiveArenaBytes(); got != start {
		t.Errorf("ledger at %d after Drain, want %d", got, start)
	}
	if _, _, n := p.Stats(); n != 0 {
		t.Errorf("pool holds %d pages after Drain", n)
	}
}

// A buffer of another length never enters the pool, and a request for
// another length never draws on it.
// TestPagePoolFreeListCostsItsSize: the free list grows a segment per
// chunk and never copies one, so cutting 64 chunks' pages allocates less
// than twice the list they end in (a slice regrown per chunk cost ≈ 3×),
// and putting them all back allocates nothing.
func TestPagePoolFreeListCostsItsSize(t *testing.T) {
	p := NewPagePool()
	pages := make([][]byte, 64*chunkPages)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range pages {
		pages[i] = p.Get()
	}
	runtime.ReadMemStats(&after)
	slots := len(p.free.segs) * chunkPages
	list := uint64(slots) * uint64(unsafe.Sizeof(pages[0]))
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*list {
		t.Errorf("cutting %d pages allocated %d bytes, want less than twice the %d-byte free list", len(pages), got, list)
	}
	if allocs := testing.AllocsPerRun(1, func() { p.Put(pages) }); allocs != 0 || len(p.free.segs)*chunkPages != slots {
		t.Errorf("putting the pages back allocated %v times and left %d slots, want none and %d", allocs, len(p.free.segs)*chunkPages, slots)
	}
	if _, _, held := p.Stats(); held != len(pages) {
		t.Errorf("pool holds %d pages, want %d", held, len(pages))
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestPagePoolOtherSizes(t *testing.T) {
	p := NewPagePool()
	page := make([]byte, DefaultPageSize)
	p.Put([][]byte{make([]byte, 1000), make([]byte, 1024), page, nil})
	if _, _, held := p.Stats(); held != 1 {
		t.Fatalf("pool holds %d pages, want only the page-sized one", held)
	}
	if b := p.Get(); len(b) != DefaultPageSize || &b[0] != &page[0] {
		t.Fatalf("Get returned %d bytes, not the page put", len(b))
	}
	if gets, hits, held := p.Stats(); gets != 1 || hits != 1 || held != 0 {
		t.Errorf("stats gets=%d hits=%d held=%d, want 1 1 0", gets, hits, held)
	}
}

// Two goroutines drawing and returning at once (run under -race): every
// page is held by exactly one party at a time.
func TestPagePoolConcurrent(t *testing.T) {
	p := drainAtEnd(t, NewPagePool())
	var wg sync.WaitGroup
	for g := byte(1); g <= 2; g++ {
		wg.Add(1)
		go func(g byte) {
			defer wg.Done()
			held := make([][]byte, 0, 8)
			for round := 0; round < 500; round++ {
				for len(held) < cap(held) {
					b := p.Get()
					for i := range b {
						b[i] = g
					}
					held = append(held, b)
				}
				for _, b := range held {
					for _, c := range b {
						if c != g {
							t.Errorf("goroutine %d found byte %#x in a page it holds", g, c)
							return
						}
					}
				}
				p.Put(held)
				held = held[:0]
			}
		}(g)
	}
	wg.Wait()
	if _, _, held := p.Stats(); held > 16 {
		t.Errorf("pool holds %d pages, more than were ever out", held)
	}
}

// ReleasePages hands a device's page pool one scaffold: the buffer pool's
// value, the COW overlay's emptied page table, and the free list — its
// pages, the overlay's images among them, and its array. The next device
// over the pool takes it whole (TakeScaffold), and a device without an
// overlay carries the table on to the one after.
func TestReleasePagesHandsOnOneScaffold(t *testing.T) {
	page := make([]byte, DefaultPageSize)
	page[0] = 7
	pp := drainAtEnd(t, NewPagePool())
	open := func(b Backend) (*Disk, any) {
		d := NewWithBackend(b)
		d.SetPagePool(pp)
		buf := d.TakeScaffold()
		if _, err := d.Allocate(8); err != nil {
			t.Fatal(err)
		}
		return d, buf
	}
	cow := func() Backend { return NewCOWBackend(nil) }
	d, buf := open(cow())
	if buf != nil {
		t.Fatalf("an empty page pool handed out scaffold %v", buf)
	}
	for _, id := range []PageID{1, 5} {
		if err := d.WriteRun(id, [][]byte{page}); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetView() // both images to the device's free list
	if _, err := d.Allocate(8); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRun(2, [][]byte{page, page, page}); err != nil { // two recycled, one from the pool
		t.Fatal(err)
	}
	if gets, hits, _ := pp.Stats(); gets != 3 || hits != 0 {
		t.Fatalf("pool saw gets=%d hits=%d, want 3 0: the device's list is the first level", gets, hits)
	}
	table := d.backend.(*cowBackend).over
	marker := new(int)
	d.ReleasePages(marker)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, held := pp.Stats(); held != 3 || pp.Scaffolds() != 1 {
		t.Errorf("pool holds %d pages and %d scaffolds after release, want 3 and 1", held, pp.Scaffolds())
	}
	// A device without an overlay takes the scaffold and hands it back
	// whole, table included.
	d, buf = open(NewMemBackend())
	if buf != marker || pp.Scaffolds() != 0 {
		t.Fatalf("the next device took %v and left %d scaffolds, want the released value and none", buf, pp.Scaffolds())
	}
	d.ReleasePages(buf)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The next overlay materialises without allocating, into the emptied
	// table: pages 1 and 5 read as the base again.
	d, buf = open(cow())
	c := d.backend.(*cowBackend)
	if buf != marker || &c.over[0] != &table[0] {
		t.Fatalf("the overlay took %v and a table at %p, want the released value and the table at %p", buf, &c.over[0], &table[0])
	}
	if err := d.WriteRun(0, [][]byte{page, page, page}); err != nil {
		t.Fatal(err)
	}
	if _, hits, held := pp.Stats(); hits != 3 || held != 0 || pp.Scaffolds() != 0 {
		t.Errorf("second overlay: hits=%d held=%d scaffolds=%d, want 3 0 0", hits, held, pp.Scaffolds())
	}
	if cs, _ := COWStatsOf(d.Backend()); cs.OverlayPages != 3 {
		t.Errorf("second overlay: %d overlay pages, want its own 3", cs.OverlayPages)
	}
	got := make([]byte, DefaultPageSize)
	if err := d.Backend().ReadAt(got, 5*DefaultPageSize); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Errorf("page 5 of the second overlay reads %#x, an image of the first", got[0])
	}
	var images [][]byte
	c.over.each(func(_ int, slot *[]byte) { images = append(images, *slot) })
	d.Close() // not released: the pages stay out
	if _, _, held := pp.Stats(); held != 0 {
		t.Errorf("a plain Close returned %d pages", held)
	}
	pp.Put(images) // back by hand, so the pool drains
}
