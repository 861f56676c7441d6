package store

import (
	"fmt"
	"reflect"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/iostat"
)

// viewExercise runs a fixed request against any execution surface (a
// Model or a View — both provide the query methods) from a cold cache and
// returns the accumulated counters. With update=true the request mutates
// root records and flushes, like query 3.
func viewExercise(t *testing.T, m Model, update bool) iostat.Stats {
	t.Helper()
	if err := m.Engine().ColdCache(); err != nil {
		t.Fatal(err)
	}
	m.Engine().ResetStats()
	if m.Kind() == NSM {
		if _, err := m.FetchByKey(cobench.KeyOf(7)); err != nil {
			t.Fatal(err)
		}
	} else if _, err := m.FetchByAddress(7); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Navigate(3); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadRoot(11); err != nil {
		t.Fatal(err)
	}
	if update {
		err := m.UpdateRoots([]int32{2, 5, 9}, func(i int32, r *cobench.RootRecord) {
			r.Name = fmt.Sprintf("upd #%d", i)
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return m.Engine().Stats()
}

// TestViewRecycle pins the view-recycling contract: a recycled view is
// indistinguishable from a fresh one — bit-identical counters, overlay
// reset to zero pages, metadata rebuilt only after mutating requests —
// and recycling holds no extra base references.
func TestViewRecycle(t *testing.T) {
	stations := testExtension(t, 40)
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			loaded := loadModel(t, k, stations)
			defer loaded.Engine().Close()
			wantRead := viewExercise(t, loaded, false)
			wantWrite := viewExercise(t, loaded, true)

			base, err := Freeze(loaded)
			if err != nil {
				t.Fatal(err)
			}
			defer base.Release()
			v, err := base.NewView(Options{BufferPages: 256})
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			refs := base.arena.Refs()

			// Fresh view, read-only request: counters match the loaded
			// model; the recycle is a cheap one (no metadata rebuild).
			if got := viewExercise(t, v.Model, false); got != wantRead {
				t.Errorf("fresh view read request: counters %+v, want %+v", got, wantRead)
			}
			rebuilt, err := v.Recycle()
			if err != nil {
				t.Fatal(err)
			}
			if rebuilt {
				t.Error("read-only request forced a metadata rebuild")
			}

			// Mutating request: the overlay materializes pages, the recycle
			// rebuilds metadata, and the next request measures fresh again.
			if got := viewExercise(t, v.Model, true); got != wantWrite {
				t.Errorf("view write request: counters %+v, want %+v", got, wantWrite)
			}
			if cs, ok := disk.COWStatsOf(v.Engine().Dev.Backend()); !ok || cs.OverlayPages == 0 {
				t.Fatalf("write request left no overlay pages (cow=%v, %+v)", ok, cs)
			}
			if rebuilt, err = v.Recycle(); err != nil {
				t.Fatal(err)
			}
			if !rebuilt {
				t.Error("mutating request did not rebuild metadata")
			}
			if cs, _ := disk.COWStatsOf(v.Engine().Dev.Backend()); cs.OverlayPages != 0 {
				t.Errorf("recycle left %d overlay pages", cs.OverlayPages)
			}
			if got := v.Engine().Stats(); got != (iostat.Stats{}) {
				t.Errorf("recycle left counters %+v", got)
			}
			if got := viewExercise(t, v.Model, false); got != wantRead {
				t.Errorf("recycled view read request: counters %+v, want %+v", got, wantRead)
			}

			// The recycled view must also produce identical *content*.
			fetch := func(m interface {
				FetchByKey(int32) (*cobench.Station, error)
			}) (*cobench.Station, error) {
				return m.FetchByKey(cobench.KeyOf(7))
			}
			want, err := fetch(loaded)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fetch(v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Error("recycled view returns different object content")
			}

			// Recycling never costs base references.
			if now := base.arena.Refs(); now != refs {
				t.Errorf("base refs drifted across recycles: %d -> %d", refs, now)
			}
		})
	}
}

// TestViewRecycleAfterGrowth covers the structural-update path: an
// UpdateObject that relocates/grows the database past the base must be
// fully undone by Recycle (allocated page count back to the base's).
func TestViewRecycleAfterGrowth(t *testing.T) {
	stations := testExtension(t, 30)
	loaded := loadModel(t, DSM, stations)
	defer loaded.Engine().Close()
	base, err := Freeze(loaded)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()
	wantRead := viewExercise(t, loaded, false)

	v, err := base.NewView(Options{BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	grow := func(s *cobench.Station) error {
		for i := 0; i < 30; i++ {
			s.Seeings = append(s.Seeings, cobench.Sightseeing{
				Nr: int32(100 + i), Description: "grown", Location: "x", History: "y", Remarks: "z",
			})
		}
		s.NoSeeing = int32(len(s.Seeings))
		return nil
	}
	if err := v.Model.UpdateObject(4, grow); err != nil {
		t.Fatal(err)
	}
	if err := v.Model.Flush(); err != nil {
		t.Fatal(err)
	}
	if v.Engine().Dev.NumPages() <= base.NumPages() {
		t.Skip("structural update did not grow the device; nothing to pin")
	}
	rebuilt, err := v.Recycle()
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		t.Error("growth did not rebuild metadata")
	}
	if got := v.Engine().Dev.NumPages(); got != base.NumPages() {
		t.Errorf("recycle left %d pages allocated, base has %d", got, base.NumPages())
	}
	if got := viewExercise(t, v.Model, false); got != wantRead {
		t.Errorf("recycled view after growth: counters %+v, want %+v", got, wantRead)
	}
}
