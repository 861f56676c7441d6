package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/disk"
)

// TestSharedBaseRoundTrip freezes every loaded storage model and checks a
// COW view restores the full extension: same object count, same layout
// metadata, and every object readable and equal to the original.
func TestSharedBaseRoundTrip(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(60))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			orig := loadModel(t, k, stations)
			defer orig.Engine().Close()
			base, err := Freeze(orig)
			if err != nil {
				t.Fatal(err)
			}
			defer base.Release()
			if base.Kind() != k || base.NumPages() == 0 {
				t.Fatalf("base: kind %s, %d pages", base.Kind(), base.NumPages())
			}
			view, err := base.NewView(Options{BufferPages: 200})
			if err != nil {
				t.Fatal(err)
			}
			defer view.Engine().Close()
			if view.NumObjects() != orig.NumObjects() {
				t.Fatalf("view has %d objects, want %d", view.NumObjects(), orig.NumObjects())
			}
			for _, i := range []int{0, 17, 59} {
				want, err := orig.FetchByKey(stations[i].Key)
				if err != nil {
					t.Fatal(err)
				}
				got, err := view.FetchByKey(stations[i].Key)
				if err != nil {
					t.Fatal(err)
				}
				if !want.Equal(got) {
					t.Errorf("object %d differs through the view", i)
				}
			}
			origSizes, viewSizes := orig.Sizes(), view.Sizes()
			if len(origSizes.Relations) != len(viewSizes.Relations) ||
				origSizes.TotalPages() != viewSizes.TotalPages() {
				t.Errorf("layout metadata differs: %+v vs %+v", origSizes, viewSizes)
			}
		})
	}
}

// TestSharedBaseViewIsolation is the store-level overlay regression: one
// view's updates must be invisible to the base and to sibling views, and
// closing the writing view must release only its overlay.
func TestSharedBaseViewIsolation(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(40))
	if err != nil {
		t.Fatal(err)
	}
	orig := loadModel(t, DASDBSNSM, stations)
	base, err := Freeze(orig)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()
	orig.Engine().Close()
	pristineSum := append([]byte(nil), checksumBase(base)...)

	writer, err := base.NewView(Options{BufferPages: 200})
	if err != nil {
		t.Fatal(err)
	}
	reader, err := base.NewView(Options{BufferPages: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Engine().Close()

	key := stations[5].Key
	idxs := []int32{5, 11, 23}
	// Same convention as query 3: overwrite the fixed-capacity name so the
	// object structure is unchanged.
	if err := writer.UpdateRoots(idxs, func(i int32, r *cobench.RootRecord) {
		r.Name = "mutated through writer view"
	}); err != nil {
		t.Fatal(err)
	}
	if err := writer.Flush(); err != nil {
		t.Fatal(err)
	}

	got, err := writer.FetchByKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "mutated through writer view" {
		t.Fatal("writer does not observe its own flushed update")
	}
	unchanged, err := reader.FetchByKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if unchanged.Name != stations[5].Name {
		t.Fatal("sibling view observes the writer's update")
	}
	if !bytes.Equal(checksumBase(base), pristineSum) {
		t.Fatal("update through a view mutated the shared base arena")
	}

	st, ok := disk.COWStatsOf(writer.Engine().Dev.Backend())
	if !ok {
		t.Fatal("writer view is not COW-backed")
	}
	if st.OverlayPages == 0 {
		t.Fatal("flushed update materialized no overlay pages")
	}
	if st.OverlayBytes >= base.ArenaBytes() {
		t.Fatalf("overlay (%d bytes) not smaller than the base (%d bytes)",
			st.OverlayBytes, base.ArenaBytes())
	}
	rst, _ := disk.COWStatsOf(reader.Engine().Dev.Backend())
	if rst.OverlayPages != 0 {
		t.Fatalf("read-only view materialized %d overlay pages", rst.OverlayPages)
	}

	if err := writer.Engine().Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checksumBase(base), pristineSum) {
		t.Fatal("closing a view damaged the shared base")
	}
	if again, err := reader.FetchByKey(key); err != nil || again.Name != stations[5].Name {
		t.Fatalf("sibling view broken after writer close: %v", err)
	}
}

// checksumBase snapshots the full base arena content (equality probe).
func checksumBase(b *SharedBase) []byte {
	return b.arena.Bytes()
}

// TestSharedBaseRejectsConflicts pins the option validation: a page size
// other than the base's is refused, and CountIndexIO opens a counted view
// for NSM+index only, never for NSM over the same base.
func TestSharedBaseRejectsConflicts(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(20))
	if err != nil {
		t.Fatal(err)
	}
	m := loadModel(t, NSMIndex, stations)
	defer m.Engine().Close()
	base, err := Freeze(m)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()
	if _, err := base.NewView(Options{PageSize: 1024}); err == nil {
		t.Error("conflicting page size accepted")
	}
	if _, err := base.NewViewAs(NSM, Options{CountIndexIO: true}); err == nil {
		t.Error("counted index I/O accepted for an NSM view")
	}
	counted, err := base.NewView(Options{CountIndexIO: true})
	if err != nil {
		t.Fatalf("counted NSM+index view refused: %v", err)
	}
	if err := counted.Engine().Close(); err != nil {
		t.Fatal(err)
	}
}

// branchOf stands a base of kind k on b's floor, as the snapshot reader
// does for a second kind of one stored entry.
func branchOf(t *testing.T, b *SharedBase, k Kind) *SharedBase {
	t.Helper()
	nb, err := b.Branch(k)
	if err != nil {
		t.Fatal(err)
	}
	return nb
}

// TestSharedBaseOwners pins the owner count over branches: two bases on
// one mapped floor count two owners each; releasing one keeps the mapping
// — the other base's views still read it — and its partner counts one;
// the mapping goes with the last base, and a second Release is an error.
func TestSharedBaseOwners(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(40))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBase(DSM, Options{}, stations)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "arena")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, n, meta, snap := loaded.SnapshotState()
	if _, err := snap.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	snap.Release()
	loaded.Release()
	arena, err := disk.MapBaseArena(f, 0, n*disk.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewSharedBase(DSM, disk.DefaultPageSize, meta, arena)
	if err != nil {
		t.Fatal(err)
	}
	partner := branchOf(t, base, DASDBSDSM)
	if base.Owners() != 2 || partner.Owners() != 2 || arena.Refs() != 2 {
		t.Fatalf("two bases on one floor: %d and %d owners, %d refs", base.Owners(), partner.Owners(), arena.Refs())
	}
	if err := base.Release(); err != nil {
		t.Fatal(err)
	}
	if partner.Owners() != 1 || arena.Refs() != 1 || partner.arena.Bytes() == nil {
		t.Fatalf("first of two Releases dropped the floor: %d owners, %d refs", partner.Owners(), arena.Refs())
	}
	v, err := partner.NewView(Options{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.FetchByAddress(7)
	if err != nil || !stations[7].Equal(got) {
		t.Fatalf("view after the first Release: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := partner.Release(); err != nil {
		t.Fatal(err)
	}
	if arena.Refs() != 0 || partner.arena.Bytes() != nil {
		t.Fatalf("last Release kept the floor: %d refs", arena.Refs())
	}
	if _, err := arena.Branch(); !errors.Is(err, disk.ErrBranch) {
		t.Errorf("branch of a released floor: %v, want disk.ErrBranch", err)
	}
	if err := partner.Release(); err == nil {
		t.Error("a second Release was accepted")
	}
}

// TestSharedBaseBranchesCommitAlone pins that two bases on one floor are
// two writers: each commits, and a commit through one kind's base never
// changes what the other kind's base serves — nor its generation, its
// delta pages or its views.
func TestSharedBaseBranchesCommitAlone(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(40))
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadBase(NSM, Options{}, stations)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()
	partner := branchOf(t, base, NSMIndex)
	defer partner.Release()
	read := func(b *SharedBase, i int) string {
		v, err := b.NewView(Options{BufferPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		r, err := v.ReadRoot(i)
		if err != nil {
			t.Fatal(err)
		}
		return r.Name
	}
	commit := func(b *SharedBase, i int32, name string) {
		v, err := b.NewView(Options{BufferPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		if err := v.UpdateRoots([]int32{i}, func(_ int32, r *cobench.RootRecord) { r.Name = name }); err != nil {
			t.Fatal(err)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Commit(nil); err != nil {
			t.Fatal(err)
		}
	}
	parked, err := partner.NewView(Options{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer parked.Close()
	orig := stations[2].Root().Name
	for round := range 3 {
		commit(base, 2, fmt.Sprintf("nsm-%d", round))
		if got := read(base, 2); got != fmt.Sprintf("nsm-%d", round) {
			t.Fatalf("round %d: NSM reads %q after its own commit", round, got)
		}
		if got := read(partner, 2); got != orig || partner.Gen() != 0 || partner.DeltaPages() != 0 {
			t.Fatalf("round %d: NSM's commit moved NSM+index: reads %q, generation %d, %d delta pages",
				round, got, partner.Gen(), partner.DeltaPages())
		}
	}
	commit(partner, 3, "nsmx")
	if read(partner, 3) != "nsmx" || read(base, 3) != stations[3].Root().Name || base.Gen() != 3 || partner.Gen() != 1 {
		t.Fatalf("NSM+index's commit: generations %d and %d", base.Gen(), partner.Gen())
	}
	if r, err := parked.ReadRoot(2); err != nil || r.Name != orig {
		t.Fatalf("a view parked on NSM+index's generation 0 reads %q (%v)", r.Name, err)
	}
	if _, err := base.Branch(NSMIndex); !errors.Is(err, disk.ErrBranch) {
		t.Errorf("branch of a promoted base: %v, want disk.ErrBranch", err)
	}
}

// TestSharedBaseOwnersConcurrent branches and releases bases of one floor
// from several goroutines while each reads through a view of its own: the
// count ends where it began, and the floor goes with the last base only.
func TestSharedBaseOwnersConcurrent(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(40))
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadBase(NSM, Options{}, stations)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := branchOf(t, base, NSMIndex)
			defer func() {
				if err := b.Release(); err != nil {
					t.Error(err)
				}
			}()
			v, err := b.NewView(Options{BufferPages: 16})
			if err != nil {
				t.Error(err)
				return
			}
			defer v.Close()
			if got, err := v.FetchByAddress(g); err != nil || !stations[g].Equal(got) {
				t.Errorf("goroutine %d: object differs (%v)", g, err)
			}
		}()
	}
	wg.Wait()
	if base.Owners() != 1 || base.arena.Refs() != 1 {
		t.Fatalf("after the goroutines: %d owners, %d arena refs; want 1 and 1", base.Owners(), base.arena.Refs())
	}
	arena := base.arena
	if err := base.Release(); err != nil {
		t.Fatal(err)
	}
	if arena.Refs() != 0 {
		t.Fatalf("last Release left %d arena refs", arena.Refs())
	}
}
