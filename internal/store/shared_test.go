package store

import (
	"bytes"
	"errors"
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
			if base.Kind() != k || base.NumPages() == 0 {
				t.Fatalf("base: kind %s, %d pages", base.Kind(), base.NumPages())
			}
			view, err := base.Open(Options{BufferPages: 200})
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
	orig.Engine().Close()
	pristineSum := append([]byte(nil), checksumBase(base)...)

	writer, err := base.Open(Options{BufferPages: 200})
	if err != nil {
		t.Fatal(err)
	}
	reader, err := base.Open(Options{BufferPages: 200})
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

// TestSharedBaseRejectsConflicts pins the option validation.
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
	if _, err := base.Open(Options{PageSize: 1024}); err == nil {
		t.Error("conflicting page size accepted")
	}
	if _, err := base.Open(Options{CountIndexIO: true}); err == nil {
		t.Error("counted index I/O accepted from a shared base")
	}
}

// TestSharedBaseOwners pins the owner count: a base two owners hold keeps
// its mapped arena through the first Release — views still open and read
// it — and drops (unmaps) it at the second; a third is an error.
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
	if base.Retain() != base || base.Owners() != 2 {
		t.Fatalf("after Retain: %d owners, want 2", base.Owners())
	}
	if err := base.Release(); err != nil {
		t.Fatal(err)
	}
	if base.Owners() != 1 || arena.Refs() != 1 || arena.Bytes() == nil {
		t.Fatalf("first of two Releases dropped the arena: %d owners, %d refs", base.Owners(), arena.Refs())
	}
	v, err := base.NewViewAs(DASDBSDSM, Options{BufferPages: 16})
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
	if err := base.Release(); err != nil {
		t.Fatal(err)
	}
	if arena.Refs() != 0 || arena.Bytes() != nil {
		t.Fatalf("last Release kept the arena: %d refs", arena.Refs())
	}
	if err := base.Release(); err == nil {
		t.Error("a Release past the last owner was accepted")
	}
}

// TestSharedBaseIsReadOnly pins that a base with two owners refuses a
// commit before it promotes anything — the generation stays — and that
// the same view commits once one owner is left.
func TestSharedBaseIsReadOnly(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(40))
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadBase(NSM, Options{}, stations)
	if err != nil {
		t.Fatal(err)
	}
	base.Retain()
	v, err := base.NewViewAs(NSMIndex, Options{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.UpdateRoots([]int32{2}, func(_ int32, r *cobench.RootRecord) { r.Name = "x" }); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Commit(nil); !errors.Is(err, ErrSharedBase) {
		t.Fatalf("commit through a shared base: %v, want ErrSharedBase", err)
	}
	if base.Gen() != 0 || base.DeltaPages() != 0 {
		t.Fatalf("refused commit moved the base: generation %d, %d delta pages", base.Gen(), base.DeltaPages())
	}
	if err := base.Release(); err != nil {
		t.Fatal(err)
	}
	res, err := v.Commit(nil)
	if err != nil || res.Gen != 1 || base.Gen() != 1 {
		t.Fatalf("commit with one owner left: %+v, %v (base at %d)", res, err, base.Gen())
	}
	if err := base.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedBaseOwnersConcurrent takes and drops owners from several
// goroutines while each reads through a view of its own: the count ends
// where it began, and the arena goes with the last owner only.
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
			b := base.Retain()
			defer func() {
				if err := b.Release(); err != nil {
					t.Error(err)
				}
			}()
			v, err := b.NewViewAs(NSMIndex, Options{BufferPages: 16})
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
