package disk

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomPages returns k distinct random pages of [0, numPages) with random
// full-page images.
func randomPages(rng *rand.Rand, numPages, k int) map[int][]byte {
	pages := make(map[int][]byte, k)
	for len(pages) < k {
		img := make([]byte, DefaultPageSize)
		rng.Read(img)
		pages[rng.Intn(numPages)] = img
	}
	return pages
}

// commitThroughView is one commit as the store layer makes it: the pages
// are written through a COW view of gen, the view's overlay is promoted,
// and the owner reference moves to the new generation (gen is released).
func commitThroughView(t *testing.T, gen *BaseArena, pages map[int][]byte) *BaseArena {
	t.Helper()
	d, err := Open(NewCOWBackend(gen))
	if err != nil {
		t.Fatal(err)
	}
	for pg, img := range pages {
		if err := d.WriteRun(PageID(pg), [][]byte{img}); err != nil {
			t.Fatal(err)
		}
	}
	dirty := make(map[int][]byte, len(pages))
	OverlayPages(d.Backend(), func(pg int, img []byte) { dirty[pg] = img })
	next, _ := gen.Promote(d.NumPages(), dirty)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gen.Release(); err != nil {
		t.Fatal(err)
	}
	return next
}

// TestRecycledImagesAreBounded pins what recycling keeps. With no view
// parked, the images a lineage holds — retired and free — never exceed
// one commit's dirty set, however many commits run. With one view parked
// on a generation, the retired images are exactly the ones that
// generation reads and a newer one replaced — the set the garbage
// collector would keep alive — and they all come free when it closes.
func TestRecycledImagesAreBounded(t *testing.T) {
	const ps, numPages, dirty = DefaultPageSize, 20 * leafPages, 16
	gen, _ := testBase(numPages)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		gen = commitThroughView(t, gen, randomPages(rng, numPages, dirty))
		if pinned, free, _ := gen.RecycleState(); len(pinned)+free > dirty {
			t.Fatalf("commit %d: the lineage holds %d retired + %d free images, more than one commit's %d",
				i, len(pinned), free, dirty)
		}
	}
	if _, _, reused := gen.RecycleState(); reused == 0 {
		t.Fatal("300 commits reused no image")
	}

	parkedGen := gen
	parked := NewCOWBackend(parkedGen)
	for i := 0; i < 300; i++ {
		gen = commitThroughView(t, gen, randomPages(rng, numPages, dirty))
	}
	want := make(map[*byte]bool)
	parkedGen.over.each(func(pg int, slot *[]byte) {
		if img := gen.over.page(pg); img == nil || &img[0] != &(*slot)[0] {
			want[&(*slot)[0]] = true
		}
	})
	pinned, free, _ := gen.RecycleState()
	if len(want) == 0 {
		t.Fatal("every image of the parked generation is still current; the check is vacuous")
	}
	if len(pinned) != len(want) || free > dirty {
		t.Fatalf("a parked view pins %d images (%d free); its generation reads %d that newer ones replaced",
			len(pinned), free, len(want))
	}
	for _, img := range pinned {
		if !want[&img[0]] {
			t.Fatal("a retired image the parked generation does not read is still pinned")
		}
	}
	if err := parked.Close(); err != nil {
		t.Fatal(err)
	}
	if pinned, free, _ := gen.RecycleState(); len(pinned) != 0 || free < len(want) {
		t.Fatalf("after the parked view closed: %d images still pinned, %d free (want ≥ %d)", len(pinned), free, len(want))
	}
	if err := gen.Release(); err != nil {
		t.Fatal(err)
	}
	if gen.Refs() != 0 {
		t.Fatalf("floor refs %d after the last release", gen.Refs())
	}
}

// TestPromoteOffTheNewestPanics: a promote of a generation that is not its
// branch's newest would fork the lineage, which cannot account for what a
// fork supersedes. It panics, and leaves the newest generation and its
// lineage untouched: the same bytes, references and recycling state, and
// later commits recycle as before.
func TestPromoteOffTheNewestPanics(t *testing.T) {
	const ps = DefaultPageSize
	base, pristine := testBase(4)
	rng := rand.New(rand.NewSource(9))
	a, _ := base.Promote(4, randomPages(rng, 4, 2))
	want := a.Bytes()
	if string(pristine) == string(want) {
		t.Fatal("the promote committed nothing; the check is vacuous")
	}
	refs := a.Refs()
	pinned, free, reused := a.RecycleState()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a promote of a generation that is not the newest did not panic")
			}
		}()
		base.Promote(4, randomPages(rng, 4, 2)) // base is no longer the newest
	}()
	if got := a.Bytes(); string(got) != string(want) {
		t.Fatal("the refused fork changed the newest generation")
	}
	if p, f, r := a.RecycleState(); a.Refs() != refs || len(p) != len(pinned) || f != free || r != reused {
		t.Fatalf("the refused fork changed the branch: refs %d → %d, pinned %d → %d, free %d → %d, reused %d → %d",
			refs, a.Refs(), len(pinned), len(p), free, f, reused, r)
	}
	if err := base.Release(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a = commitThroughView(t, a, randomPages(rng, 4, 2))
	}
	if _, _, reused := a.RecycleState(); reused == 0 {
		t.Fatal("the newest generation's lineage stopped recycling after a refused fork")
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestBranchPoolReturnsInEveryReleaseOrder pins the lifetime of a branch's
// committed images, which are pages of the branch's own pool, off the Go
// heap: whichever generation drains last, every image is back in the pool
// then and the pool's chunks are unmapped, so LiveArenaBytes returns to
// where it started. Newest first, with a view parked on an older
// generation, the images only newer generations read come back at once and
// the parked view keeps reading its own bytes (under -tags poison a
// returned image reads 0xDB); oldest first, the newest generation's last
// release returns them all.
func TestBranchPoolReturnsInEveryReleaseOrder(t *testing.T) {
	const numPages, dirty = 8 * leafPages, 12
	for _, newestFirst := range []bool{true, false} {
		start := LiveArenaBytes()
		gen, _ := testBase(numPages)
		rng := rand.New(rand.NewSource(49))
		for i := 0; i < 20; i++ {
			gen = commitThroughView(t, gen, randomPages(rng, numPages, dirty))
		}
		parkedGen, parkedBytes := gen, gen.Bytes()
		parked := NewCOWBackend(parkedGen)
		for i := 0; i < 20; i++ {
			gen = commitThroughView(t, gen, randomPages(rng, numPages, dirty))
		}
		if LiveArenaBytes() == start {
			t.Fatal("40 commits mapped no pool chunk; the check is vacuous")
		}
		if newestFirst {
			_, freeBefore, _ := parkedGen.RecycleState()
			if err := gen.Release(); err != nil {
				t.Fatal(err)
			}
			if _, free, _ := parkedGen.RecycleState(); free <= freeBefore {
				t.Errorf("the newest generation drained and returned no image (%d free, %d before)", free, freeBefore)
			}
			got := make([]byte, len(parkedBytes))
			if err := parked.ReadAt(got, 0); err != nil || !bytes.Equal(got, parkedBytes) {
				t.Fatalf("the parked view no longer reads its generation once the newest drained (%v)", err)
			}
			if err := parked.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := parked.Close(); err != nil {
				t.Fatal(err)
			}
			if err := gen.Release(); err != nil {
				t.Fatal(err)
			}
		}
		if got := LiveArenaBytes() - start; got != 0 {
			t.Errorf("newest first %t: %d off-heap bytes live after the branch's last release", newestFirst, got)
		}
	}
}
