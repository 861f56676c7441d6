package buffer

import (
	"testing"

	"complexobj/internal/disk"
)

// testDevices builds one fresh device per backend kind, so every alloc
// budget below is pinned against the memory arena and the copy-on-write
// overlay alike: the recycled-frame read path must stay allocation-free
// no matter where the page bytes live. The COW device reads through a
// pre-populated shared base, the configuration every measured cell runs
// in steady state (reads never materialize overlay pages, re-writes of
// materialized pages allocate nothing).
func testDevices(t *testing.T) map[string]func() *disk.Disk {
	t.Helper()
	return map[string]func() *disk.Disk{
		"mem": func() *disk.Disk { return disk.New() },
		"cow": func() *disk.Disk {
			base := disk.NewBaseArena(make([]byte, 256*disk.DefaultPageSize))
			d, err := disk.Open(disk.NewCOWBackend(base))
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
}

// TestFixHitZeroAllocs pins the allocation budget of the cache-hit fix —
// the hottest operation of the simulation. The dense PageID index and the
// intrusive LRU list make it allocation-free; a regression here slows every
// experiment.
func TestFixHitZeroAllocs(t *testing.T) {
	for name, newDev := range testDevices(t) {
		t.Run(name, func(t *testing.T) {
			d := newDev()
			defer d.Close()
			if _, err := d.Allocate(4); err != nil {
				t.Fatal(err)
			}
			p := New(d, 4, LRU)
			if _, err := p.Fix(2); err != nil {
				t.Fatal(err)
			}
			if err := p.Unfix(2, false); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(1000, func() {
				f, err := p.Fix(2)
				if err != nil {
					t.Fatal(err)
				}
				_ = f
				if err := p.Unfix(2, false); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("fix-hit path allocates %.1f objects per op, want 0", allocs)
			}
		})
	}
}

// TestFixMissSteadyStateZeroAllocs asserts that the miss/evict cycle
// recycles frame buffers and Frame structs through the free-lists: once the
// pool has warmed up, churning a working set larger than the pool allocates
// nothing per fix — against either backend, since ReadRun always lands in
// recycled frame memory.
func TestFixMissSteadyStateZeroAllocs(t *testing.T) {
	const pages = 64
	for name, newDev := range testDevices(t) {
		t.Run(name, func(t *testing.T) {
			d := newDev()
			defer d.Close()
			if _, err := d.Allocate(pages); err != nil {
				t.Fatal(err)
			}
			p := New(d, 8, LRU)
			// Warm up: touch every page once so index, free-lists and scratch
			// buffers reach steady-state capacity.
			for i := 0; i < pages; i++ {
				if _, err := p.Fix(disk.PageID(i)); err != nil {
					t.Fatal(err)
				}
				if err := p.Unfix(disk.PageID(i), false); err != nil {
					t.Fatal(err)
				}
			}
			next := 0
			allocs := testing.AllocsPerRun(1000, func() {
				id := disk.PageID(next % pages)
				next++
				f, err := p.Fix(id)
				if err != nil {
					t.Fatal(err)
				}
				_ = f
				if err := p.Unfix(id, false); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state miss path allocates %.1f objects per op, want 0", allocs)
			}
			// The multi-page fix hands its frames back in pool scratch
			// (under the poison tag a fresh slice each call).
			if poison {
				return
			}
			ids := make([]disk.PageID, 4)
			allocs = testing.AllocsPerRun(1000, func() {
				for j := range ids {
					ids[j] = disk.PageID((next + j) % pages)
				}
				next += len(ids)
				if _, err := p.FixRun(ids); err != nil {
					t.Fatal(err)
				}
				for _, id := range ids {
					if err := p.Unfix(id, false); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state run-miss path allocates %.1f objects per op, want 0", allocs)
			}
		})
	}
}

// TestFlushZeroAllocs asserts the dirty-list flush does not allocate once
// scratch space has warmed up: no full-frame scan, no fresh victim slices.
func TestFlushZeroAllocs(t *testing.T) {
	const pages = 32
	for name, newDev := range testDevices(t) {
		t.Run(name, func(t *testing.T) {
			d := newDev()
			defer d.Close()
			if _, err := d.Allocate(pages); err != nil {
				t.Fatal(err)
			}
			p := New(d, pages, LRU)
			dirtyAll := func() {
				for i := 0; i < pages; i++ {
					f, err := p.Fix(disk.PageID(i))
					if err != nil {
						t.Fatal(err)
					}
					p.MarkDirty(f)
					if err := p.Unfix(disk.PageID(i), true); err != nil {
						t.Fatal(err)
					}
				}
			}
			dirtyAll()
			if err := p.FlushAll(); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				dirtyAll()
				if err := p.FlushAll(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("flush cycle allocates %.1f objects per op, want 0", allocs)
			}
		})
	}
}

// opaqueBackend hides the optional capabilities of the backend it wraps:
// interface embedding promotes only Backend's method set, so the wrapper
// is neither a flat backend nor a disk.StablePager even when the inner
// backend is. Tests use it to force the pool onto the buffered copy path.
type opaqueBackend struct{ disk.Backend }

// TestBufferMemoryRecycled asserts eviction returns page buffers to the
// free-list instead of abandoning them to the garbage collector: after
// churning many pages through a small pool, the pool should not be holding
// more distinct page buffers than its capacity plus the free-list. The
// backend is wrapped opaque so every load actually takes a pool buffer —
// zero-copy backends hand out no buffers at all (TestBufferBorrowsSharedPages).
func TestBufferMemoryRecycled(t *testing.T) {
	const pages = 128
	const capacity = 4
	d := disk.NewWithBackend(opaqueBackend{disk.NewMemBackend()})
	if _, err := d.Allocate(pages); err != nil {
		t.Fatal(err)
	}
	p := New(d, capacity, LRU)
	seen := make(map[*byte]bool)
	for round := 0; round < 3; round++ {
		for i := 0; i < pages; i++ {
			f, err := p.Fix(disk.PageID(i))
			if err != nil {
				t.Fatal(err)
			}
			if f.Borrowed() {
				t.Fatal("opaque backend produced a borrowed frame")
			}
			seen[&f.Data[0]] = true
			if err := p.Unfix(disk.PageID(i), false); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every eviction recycles its buffer, so the distinct buffers ever
	// handed out stay bounded by the pool footprint (capacity resident +
	// briefly-free spares), not by the 3*128 page visits.
	if len(seen) > 2*capacity {
		t.Errorf("pool handed out %d distinct page buffers for capacity %d; recycling broken", len(seen), capacity)
	}
}

// TestDropDiscardsWithoutIO pins Drop's contract: resident frames leave
// the pool with no disk traffic and no counter movement, dirty or not.
func TestDropDiscardsWithoutIO(t *testing.T) {
	d := disk.New()
	if _, err := d.Allocate(4); err != nil {
		t.Fatal(err)
	}
	p := New(d, 4, LRU)
	for i := 0; i < 3; i++ {
		f, err := p.Fix(disk.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			p.MarkDirty(f) // page 1 dirty
		}
		if err := p.Unfix(disk.PageID(i), i == 1); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Stats()
	if err := p.Drop([]disk.PageID{0, 1, 3}); err != nil { // 3 is non-resident
		t.Fatal(err)
	}
	if after := d.Stats(); after != before {
		t.Errorf("Drop moved device counters: %+v -> %+v", before, after)
	}
	if p.Contains(0) || p.Contains(1) {
		t.Error("dropped pages still resident")
	}
	if !p.Contains(2) {
		t.Error("unrelated page evicted by Drop")
	}
	// A dropped dirty page must not resurface at the next flush.
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats(); got.PagesWritten != 0 {
		t.Errorf("dropped dirty page written back: %+v", got)
	}
	// Dropping a pinned page is refused.
	if _, err := p.Fix(2); err != nil {
		t.Fatal(err)
	}
	if err := p.Drop([]disk.PageID{2}); err == nil {
		t.Error("Drop of pinned page succeeded")
	}
	if err := p.Unfix(2, false); err != nil {
		t.Fatal(err)
	}
}

// TestFreshPoolAllocatesFramesInSlabs: a fresh pool of capacity C that
// loads C pages allocates at most ⌈C/64⌉ frame slabs, not one Frame per
// page. The pages are borrowed from a loader arena and fixed from the highest
// id down, so everything else the pool allocates — itself, its page index,
// its read scratch — is the same whether it loads one page or C: the
// difference between the two is the slabs after the first.
func TestFreshPoolAllocatesFramesInSlabs(t *testing.T) {
	for _, c := range []int{1, 8, 64, 65, 300, 1200} {
		d := disk.New()
		if _, err := d.Allocate(c); err != nil {
			t.Fatal(err)
		}
		load := func(pages int) float64 {
			return testing.AllocsPerRun(20, func() {
				p := New(d, c, LRU)
				for i := c - 1; i >= c-pages; i-- {
					if _, err := p.Fix(disk.PageID(i)); err != nil {
						t.Fatal(err)
					}
					if err := p.Unfix(disk.PageID(i), false); err != nil {
						t.Fatal(err)
					}
				}
				if p.Len() != pages {
					t.Fatalf("capacity %d: %d pages resident, want %d", c, p.Len(), pages)
				}
			})
		}
		slabs := (c + frameSlab - 1) / frameSlab
		if extra := load(c) - load(1); extra > float64(slabs-1) {
			t.Errorf("capacity %d: loading every page allocates %.0f more than loading one, want at most %d more slabs",
				c, extra, slabs-1)
		}
	}
}

// TestEmptyZeroAllocs pins the cold-cache reset (Reset, and Discard with
// it): walking and recycling the resident frames needs no list of them.
func TestEmptyZeroAllocs(t *testing.T) {
	for _, policy := range []Policy{LRU, Clock} {
		d := disk.New()
		if _, err := d.Allocate(16); err != nil {
			t.Fatal(err)
		}
		p := New(d, 16, policy)
		cycle := func() {
			for id := disk.PageID(0); id < 16; id++ {
				f, err := p.Fix(id)
				if err != nil {
					t.Fatal(err)
				}
				if id%5 == 0 {
					p.MarkDirty(f)
				}
				if err := p.Unfix(id, id%5 == 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Reset(); err != nil {
				t.Fatal(err)
			}
			if p.Len() != 0 {
				t.Fatalf("%v: %d frames resident after Reset", policy, p.Len())
			}
		}
		cycle()
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
			t.Errorf("%v: fix-and-reset cycle allocates %.1f objects, want 0", policy, allocs)
		}
	}
}

// TestReleaseHandsBuffersToThePagePool: a pool's owned frame buffers come
// from the device's page pool once the device's free list is empty and go
// back to it at Release, in the one scaffold the closed engine leaves — not
// while a frame is pinned, and never a borrowed page, which is the
// backend's memory.
func TestReleaseHandsBuffersToThePagePool(t *testing.T) {
	d := disk.New()
	pp := disk.NewPagePool()
	d.SetPagePool(pp)
	if _, err := d.Allocate(8); err != nil {
		t.Fatal(err)
	}
	p := New(d, 8, LRU)
	for id := disk.PageID(0); id < 6; id++ {
		f, err := p.Fix(id) // borrowed from the loader arena
		if err != nil {
			t.Fatal(err)
		}
		if id < 3 {
			p.MarkDirty(f) // promoted: three owned buffers
		}
		if id != 5 {
			if err := p.Unfix(id, id < 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	if gets, hits, _ := pp.Stats(); gets != 3 || hits != 0 {
		t.Fatalf("page pool saw gets=%d hits=%d, want 3 0", gets, hits)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(); err == nil {
		t.Fatal("Release with a pinned page succeeded")
	}
	if _, _, held := pp.Stats(); held != 0 || pp.Scaffolds() != 0 {
		t.Fatalf("a failed Release handed back %d pages and %d scaffolds", held, pp.Scaffolds())
	}
	if err := p.Unfix(5, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(); err != nil {
		t.Fatal(err)
	}
	if _, _, held := pp.Stats(); held != 3 || p.Len() != 0 || pp.Scaffolds() != 1 {
		t.Errorf("after Release the page pool holds %d pages and %d scaffolds, and %d frames are resident, want 3, 1 and 0", held, pp.Scaffolds(), p.Len())
	}
	if err := pp.Drain(); err != nil {
		t.Errorf("every page is back, yet %v", err)
	}
}

// TestReleaseHandsScaffoldOn: a released pool leaves its scaffolding in its
// device's page pool, and the next pool opened over a device of that page
// pool — here a smaller one, under the other policy — starts from it: no
// frame of the first pool is resident in the second, the second's index is
// sized to its own device at once (in the first's array), and the frames it
// loads are the first's.
func TestReleaseHandsScaffoldOn(t *testing.T) {
	pp := disk.NewPagePool()
	open := func(pages int) *disk.Disk {
		d := disk.New()
		d.SetPagePool(pp)
		if _, err := d.Allocate(pages); err != nil {
			t.Fatal(err)
		}
		return d
	}
	cycle := func(p *Pool, lo, hi int) {
		for id := disk.PageID(lo); id < disk.PageID(hi); id++ {
			f, err := p.Fix(id)
			if err != nil {
				t.Fatal(err)
			}
			if id%3 == 0 {
				p.MarkDirty(f)
			}
			if err := p.Unfix(id, id%3 == 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	first := New(open(200), 64, LRU)
	cycle(first, 0, 200) // evicts: frames pass through the free list
	frames := map[*Frame]bool{}
	for id := disk.PageID(0); id < 200; id++ {
		if f := first.frameAt(id); f != nil {
			frames[f] = true
		}
	}
	if err := first.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := first.Release(); err != nil {
		t.Fatal(err)
	}
	if n := pp.Scaffolds(); n != 1 {
		t.Fatalf("a released pool left %d scaffolds, want 1", n)
	}

	second := New(open(100), 64, Clock)
	if n := pp.Scaffolds(); n != 0 {
		t.Fatalf("the next pool left %d scaffolds in the page pool, want it to take the one", n)
	}
	for id := disk.PageID(0); id < 100; id++ {
		if second.Contains(id) {
			t.Fatalf("page %d of the released pool is resident in the next", id)
		}
	}
	cycle(second, 36, 100)
	if len(second.index) != 100 || cap(second.index) < 200 {
		t.Errorf("index len %d cap %d, want 100 in the released pool's array of %d", len(second.index), cap(second.index), 200)
	}
	for id := disk.PageID(36); id < 100; id++ {
		if f := second.frameAt(id); f == nil || !frames[f] || f.ID != id {
			t.Fatalf("page %d: frame %p is not one the released pool handed on", id, f)
		}
	}
	cycle(second, 0, 100) // and the Clock ring runs on the handed-on array
	if second.Len() != 64 {
		t.Errorf("%d pages resident, want 64", second.Len())
	}
}
