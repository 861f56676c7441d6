package buffer

import (
	"bytes"
	"runtime"
	"testing"

	"complexobj/internal/disk"
)

// TestPoolObservesCOWOverlay pins the pool ↔ COW-backend contract: a
// frame dirtied and flushed over a copy-on-write device lands in the
// engine's private overlay, and every later fix — including after a Drop
// that recycles the frame — observes the overlay image, never the stale
// shared base. The base itself must stay byte-identical throughout.
func TestPoolObservesCOWOverlay(t *testing.T) {
	const ps = disk.DefaultPageSize
	baseData := make([]byte, 8*ps)
	for i := range baseData {
		baseData[i] = byte(i % 37)
	}
	pristine := append([]byte(nil), baseData...)
	base := disk.NewBaseArena(baseData)

	d, err := disk.Open(disk.NewCOWBackend(base))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	p := New(d, 4, LRU)

	// Read a base page through the pool, modify it in the frame, flush.
	f, err := p.Fix(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Data, pristine[3*ps:4*ps]) {
		t.Fatal("fix does not read through to the base")
	}
	p.MarkDirty(f)
	copy(f.Data, "overlay image")
	if err := p.Unfix(3, true); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Drop the frame: the next fix must re-read from the device and see
	// the overlay write, not the base.
	if err := p.Drop([]disk.PageID{3}); err != nil {
		t.Fatal(err)
	}
	f, err = p.Fix(3)
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Data[:13]) != "overlay image" {
		t.Fatal("re-fixed frame does not observe the flushed overlay write")
	}
	if err := p.Unfix(3, false); err != nil {
		t.Fatal(err)
	}

	// Dropping frames of clean base pages recycles memory without
	// touching base or counters.
	if _, err := p.Fix(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Unfix(1, false); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	if err := p.Drop([]disk.PageID{1}); err != nil {
		t.Fatal(err)
	}
	if after := d.Stats(); after != before {
		t.Errorf("Drop of a base page moved counters: %+v -> %+v", before, after)
	}

	if !bytes.Equal(base.Bytes(), pristine) {
		t.Fatal("pool traffic mutated the shared base")
	}
	st, ok := disk.COWStatsOf(d.Backend())
	if !ok || st.OverlayPages != 1 {
		t.Fatalf("overlay stats after one dirtied page: %+v (ok=%v)", st, ok)
	}
}

// TestOneListServesFramesAndOverlay: a device's frame buffers and its COW
// overlay's images come from one free list. A poolless engine that
// discards n promoted frames then makes n full-page overlay writes without
// allocating: the frames' buffers become the overlay's images. The fewest
// allocations of three fresh engines are counted, so a stray runtime
// allocation during one cannot fail the test.
func TestOneListServesFramesAndOverlay(t *testing.T) {
	const ps, n = disk.DefaultPageSize, 64
	base := disk.NewBaseArena(make([]byte, 2*n*ps))
	defer base.Release()
	one := [][]byte{make([]byte, ps)}
	writes := func(d *disk.Disk, from, to, step disk.PageID) {
		for id := from; id < to; id += step {
			if err := d.WriteRun(id, one); err != nil {
				t.Fatal(err)
			}
		}
	}
	fewest := uint64(n)
	for range 3 {
		d, err := disk.Open(disk.NewCOWBackend(base))
		if err != nil {
			t.Fatal(err)
		}
		// One write per leaf builds the overlay's table and leaves, which
		// the reset keeps (its images go to the list, and promotes take them).
		writes(d, 0, 2*n, 16)
		d.ResetView()
		p := New(d, n, LRU)
		for id := disk.PageID(n); id < 2*n; id++ {
			f, err := p.Fix(id)
			if err != nil {
				t.Fatal(err)
			}
			p.MarkDirty(f)
			if err := p.Unfix(id, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Discard(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		writes(d, 0, n, 1)
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
		if cs, _ := disk.COWStatsOf(d.Backend()); cs.OverlayPages != n {
			t.Errorf("%d overlay pages, want %d", cs.OverlayPages, n)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if fewest != 0 {
		t.Errorf("%d overlay writes after %d discarded frames allocated %d times, want 0", n, n, fewest)
	}
}
