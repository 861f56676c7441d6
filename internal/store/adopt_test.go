package store_test

import (
	"errors"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/store"
	"complexobj/internal/workload"
)

// decodedTwin stands a base of loaded's kind on a branch of loaded's floor
// whose directory is built from blob: the path a base opened from a .codb
// file takes, decoding its tables at its first view.
func decodedTwin(t *testing.T, loaded *store.SharedBase, blob []byte) *store.SharedBase {
	t.Helper()
	arena, err := loaded.BranchArena()
	if err != nil {
		t.Fatal(err)
	}
	return store.NewSharedBase(loaded.Kind(), blob, arena)
}

// runAll runs every query on a fresh view of b and returns the view, for
// more, and what the queries measured (wall time dropped).
func runAll(t *testing.T, b *store.SharedBase) (*store.View, []workload.Result) {
	t.Helper()
	v, err := b.NewView(store.Options{BufferPages: 200})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	r := workload.NewRunner(v, cobench.Workload{Loops: 60, Samples: 10, Seed: 11})
	var res []workload.Result
	for _, q := range cobench.AllQueries() {
		got, err := r.Run(q)
		if err != nil {
			t.Fatalf("%s %s: %v", b.Kind(), q, err)
		}
		got.Elapsed = 0
		res = append(res, got)
	}
	return v, res
}

// sameDirectory holds a loaded base's view and its decoded twin's to one
// another: every query's counters, the physical layout, the directory
// blob.
func sameDirectory(t *testing.T, when string, lv, dv *store.View, lres, dres []workload.Result) {
	t.Helper()
	if !slices.Equal(lres, dres) {
		t.Errorf("%s: loaded base measures %+v, decoded %+v", when, lres, dres)
	}
	ls, ds := lv.Model.Sizes(), dv.Model.Sizes()
	if ls.Model != ds.Model || !slices.Equal(ls.Relations, ds.Relations) {
		t.Errorf("%s: loaded base sizes %+v, decoded %+v", when, ls, ds)
	}
	lm, err := lv.Model.SnapshotMeta()
	if err != nil {
		t.Fatal(err)
	}
	dm, err := dv.Model.SnapshotMeta()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(lm, dm) {
		t.Errorf("%s: the loaded base's view encodes a %d-byte blob, the decoded one's %d bytes that differ", when, len(lm), len(dm))
	}
}

// TestLoadedBaseMatchesDecoded pins the hand-over of a loader's directory
// at paper scale: a base whose tables are the loader's own and a base on
// the same floor that decodes them from the blob a private load encodes
// measure every query alike, report the same layout and encode the same
// blob — the loaded base's own, encoded on demand, included — and still
// do after an UpdateObject that moves an object and its key has been
// committed to each.
func TestLoadedBaseMatchesDecoded(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range store.AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			private, err := store.New(k, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := private.Load(stations); err != nil {
				t.Fatal(err)
			}
			blob, err := private.SnapshotMeta()
			private.Engine().Close()
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := store.LoadBase(k, store.Options{}, stations)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Release()
			decoded := decodedTwin(t, loaded, blob)
			defer decoded.Release()

			lv, lres := runAll(t, loaded)
			dv, dres := runAll(t, decoded)
			sameDirectory(t, "as loaded", lv, dv, lres, dres)
			if !slices.Equal(loaded.Meta(), blob) {
				t.Error("the loaded base encodes a blob other than a private load's")
			}

			const moved = 7
			key := stations[len(stations)-1].Key + 1000
			for _, v := range []*store.View{lv, dv} {
				if err := v.Rebase(); err != nil {
					t.Fatal(err)
				}
				err := v.Model.UpdateObject(moved, func(s *cobench.Station) error {
					s.Key = key
					for j := 0; j < 30; j++ {
						s.Seeings = append(s.Seeings, cobench.Sightseeing{Nr: int32(900 + j), Description: "grown"})
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := v.Commit(nil); err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Equal(loaded.Meta(), decoded.Meta()) {
				t.Error("committed directories differ")
			}
			lv, lres = runAll(t, loaded)
			dv, dres = runAll(t, decoded)
			sameDirectory(t, "after a committed move", lv, dv, lres, dres)
			if s, err := lv.FetchByKey(key); err != nil || s.Key != key || len(s.Seeings) < 30 {
				t.Errorf("the moved object under its new key: %v, %v", s, err)
			}
		})
	}
}

// heapLive returns the Go heap's live bytes after a full collection.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestLoadedBaseRetainsNoLoader bounds what a loaded base keeps of its
// loader: after a collection, the five paper-scale bases LoadBase builds
// — each with a view opened and closed, so their tables are attached —
// hold at most 5 % more Go heap than the same bases frozen from private
// loads, whose directories their first view decoded from a blob (the
// blobs, which a loaded base does not hold, not counted). A base that
// kept its loader's engine, buffer pool or encode scratch alive — through
// a heap's or a long-object store's reference to the state it attached,
// say — would hold several times that.
func TestLoadedBaseRetainsNoLoader(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale bases")
	}
	stations, err := cobench.Generate(cobench.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	touch := func(b *store.SharedBase) {
		v, err := b.NewView(store.Options{BufferPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		v.Close()
	}
	release := func(bases []*store.SharedBase) {
		for _, b := range bases {
			if err := b.Release(); err != nil {
				t.Fatal(err)
			}
		}
	}

	before := heapLive()
	var loaded []*store.SharedBase
	for _, k := range store.AllKinds() {
		b, err := store.LoadBase(k, store.Options{}, stations)
		if err != nil {
			t.Fatal(err)
		}
		touch(b)
		loaded = append(loaded, b)
	}
	loadedLive := int64(heapLive()) - int64(before)
	runtime.KeepAlive(loaded)
	release(loaded)

	before = heapLive()
	var decoded []*store.SharedBase
	blobs := 0
	for _, k := range store.AllKinds() {
		m, err := store.New(k, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(stations); err != nil {
			t.Fatal(err)
		}
		b, err := store.Freeze(m)
		m.Engine().Close()
		if err != nil {
			t.Fatal(err)
		}
		touch(b)
		blobs += len(b.Meta())
		decoded = append(decoded, b)
	}
	decodedLive := int64(heapLive()) - int64(before) - int64(blobs)
	runtime.KeepAlive(decoded)
	runtime.KeepAlive(stations) // live across both measurements
	release(decoded)

	if store.Poison { // the poison check encoded each loaded base's blob at its first view
		loadedLive -= int64(blobs)
	}
	t.Logf("heap live: loaded bases %d KiB, decoded %d KiB (their blobs' %d KiB not counted)",
		loadedLive>>10, decodedLive>>10, blobs>>10)
	if float64(loadedLive) > 1.05*float64(decodedLive) {
		t.Errorf("five loaded bases hold %d KiB of Go heap, decoded ones %d KiB: more than 5 %% above",
			loadedLive>>10, decodedLive>>10)
	}
}

// TestLoadBaseRefusesCountedIndex pins the refusal SnapshotMeta made when
// adopt encoded every loaded directory: a counted NSM+index model keeps
// its B+-trees in its engine's own pages, so it never becomes a base.
func TestLoadBaseRefusesCountedIndex(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(60))
	if err != nil {
		t.Fatal(err)
	}
	if b, err := store.LoadBase(store.NSMIndex, store.Options{CountIndexIO: true}, stations); err == nil {
		b.Release()
		t.Fatal("a counted NSM+index load became a base")
	}
	dup := slices.Clone(stations)
	dup[5] = dup[4]
	if b, err := store.LoadBase(store.DSM, store.Options{}, dup); !errors.Is(err, store.ErrDuplicateKey) {
		if err == nil {
			b.Release()
		}
		t.Fatalf("a load whose objects share a key: %v, want ErrDuplicateKey", err)
	}
}

// BenchmarkFirstView is the bench-regress row of a loaded base's first
// use: LoadBase, a view opened and closed, Release, per kind, over 300
// stations, on a page pool as an experiments suite runs them — so the
// loader's and the view's page buffers are the pool's, off the Go heap,
// and what is left per op is the directory and the engines' scaffolding.
// A base that decoded its directory, or encoded its blob, on the way would
// show here as bytes and allocations per op.
func BenchmarkFirstView(b *testing.B) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(300))
	if err != nil {
		b.Fatal(err)
	}
	opts := store.Options{Pages: disk.NewPagePool()}
	defer opts.Pages.Drain()
	for _, k := range store.AllKinds() {
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				base, err := store.LoadBase(k, opts, stations)
				if err != nil {
					b.Fatal(err)
				}
				m, err := base.NewViewAs(k, opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Engine().Close(); err != nil {
					b.Fatal(err)
				}
				if err := base.Release(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFirstScan is one query-1c scan on a fresh view of a loaded base
// with no shared Options.Scans, so each op builds the scan's staging cold:
// what a batch cell's NSM scan costs. Streamed, the sightseeing relation's
// rows and strings are one object's; a staging of every relation grew
// them for the whole extension.
func BenchmarkFirstScan(b *testing.B) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(300))
	if err != nil {
		b.Fatal(err)
	}
	base, err := store.LoadBase(store.NSM, store.Options{}, stations)
	if err != nil {
		b.Fatal(err)
	}
	defer base.Release()
	for _, k := range []store.Kind{store.NSM, store.NSMIndex} {
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := base.NewViewAs(k, store.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if err := v.ScanAll(func(int, *cobench.Station) error { return nil }); err != nil {
					b.Fatal(err)
				}
				if err := v.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
