package longobj

import (
	"fmt"
	"testing"

	"complexobj/internal/buffer"
	"complexobj/internal/disk"
	"complexobj/internal/faultdisk"
)

// TestFailedLargeInsertReturnsItsRun is the leaked-pages regression: a
// large insert claims its page run (extending the device) before it
// writes, and a failed write used to return with the run neither
// referenced by an object nor in the free-space map — dead space no
// later insert could reach. The run must go back to the map, so the next
// insert of the same size reuses it instead of growing the device.
//
// The write fault comes from a seeded faultdisk schedule; the test walks
// seeds until one faults the first insert and spares the second.
func TestFailedLargeInsertReturnsItsRun(t *testing.T) {
	obj := []Component{comp(0, 0xAA, 100), comp(1, 0xBB, 3000), comp(2, 0xCC, 2500)}
	const pages = 4 // one header page + ceil(5600 / 2012) data pages
	exercised := 0
	for seed := uint64(1); seed <= 64 && exercised < 3; seed++ {
		in := faultdisk.New(faultdisk.Spec{Seed: seed, Write: 0.3})
		d := disk.NewWithBackend(in.Wrap(disk.NewMemBackend()))
		s := New(d, buffer.New(d, 16, buffer.LRU), fmt.Sprintf("faulted_%d", seed))
		if _, err := s.Insert(obj); err == nil {
			continue // this seed lets the first insert through
		}
		if d.NumPages() != pages {
			t.Fatalf("seed %d: failed insert left the device at %d pages, want the claimed %d", seed, d.NumPages(), pages)
		}
		if s.freedPages != pages {
			t.Fatalf("seed %d: free-space map holds %d pages after a failed insert, want %d: the run leaked",
				seed, s.freedPages, pages)
		}
		if s.NumLarge() != 0 || s.TotalPages() != 0 {
			t.Fatalf("seed %d: failed insert was accounted: %d large objects, %d pages", seed, s.NumLarge(), s.TotalPages())
		}
		ref, err := s.Insert(obj)
		if err != nil {
			continue // faulted again; the run is back in the map either way
		}
		exercised++
		if ref.Start != 0 || ref.Pages() != pages || d.NumPages() != pages || s.freedPages != 0 {
			t.Errorf("seed %d: retry stored at page %d (%d pages), device %d pages, %d still free: the run was not reused",
				seed, ref.Start, ref.Pages(), d.NumPages(), s.freedPages)
		}
		got, err := readAll(s, ref)
		if err != nil || !equalComps(got, obj) {
			t.Errorf("seed %d: object stored over the recycled run reads back wrong: %v", seed, err)
		}
	}
	if exercised == 0 {
		t.Fatal("no seed faulted the first insert and spared the second")
	}
}

// TestLargeWritesAllocateNothing pins the page-image scratch: in steady
// state a large insert and an in-place replacement lay the object out in
// the store's reused images and allocate nothing per call.
func TestLargeWritesAllocateNothing(t *testing.T) {
	if poison {
		t.Skip("under the poison tag every FixRun allocates its result")
	}
	d, _, s := newStore(t, 64)
	obj := []Component{comp(0, 1, 120), comp(1, 2, 3000), comp(1, 3, 3000), comp(2, 4, 1500)}
	const runs = 50
	d.Reserve((runs + 2) * 5)
	if allocs := testing.AllocsPerRun(runs, func() {
		if _, err := s.Insert(obj); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("large Insert: %.1f allocs/op, want 0", allocs)
	}
	ref, err := s.Insert(obj)
	if err != nil {
		t.Fatal(err)
	}
	next := []Component{comp(0, 9, 120), comp(1, 8, 3000), comp(1, 7, 3000), comp(2, 6, 1500)}
	if allocs := testing.AllocsPerRun(runs, func() {
		if err := s.ReplaceAll(ref, next); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("large ReplaceAll: %.1f allocs/op, want 0", allocs)
	}
	got, err := readAll(s, ref)
	if err != nil || !equalComps(got, next) {
		t.Errorf("replaced object reads back wrong: %v", err)
	}
}

// TestSizerMatchesInserts pins the sizing pass to the insert paths: for a
// mix of small and large objects the pages a Sizer predicts from the
// shapes alone are exactly the pages the inserts allocate.
func TestSizerMatchesInserts(t *testing.T) {
	d, _, s := newStore(t, 64)
	var z Sizer
	shapes := [][]int{{100}, {100, 700, 700}, {1999}, {2000}, {2001}, {120, 3000, 3000}, {50, 50}, {900, 900}, {6000}, {0}, {300}}
	for round := 0; round < 40; round++ {
		for _, shape := range shapes {
			comps, total := make([]Component, len(shape)), 0
			for i, n := range shape {
				n += round % 7 * 31 // vary the packing
				comps[i], total = comp(uint8(i), byte(round), n), total+n
			}
			if _, err := s.Insert(comps); err != nil {
				t.Fatal(err)
			}
			z.Add(len(comps), total)
			if z.Pages() != d.NumPages() {
				t.Fatalf("round %d shape %v: sizer predicts %d pages, device holds %d", round, shape, z.Pages(), d.NumPages())
			}
		}
	}
	if s.NumLarge() == 0 || s.SharedHeap().NumRecords() == 0 {
		t.Fatal("the mix exercised only one of the two object forms")
	}
}
