package store

import (
	"fmt"
	"strings"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/buffer"
	"complexobj/internal/disk"
	"complexobj/internal/faultdisk"
	"complexobj/internal/iostat"
)

// TestEngineCloseReturnsPages pins who owns a page buffer when: a view
// that dirtied k pages gives at least k buffers to its Options' pool when
// it closes clean (k overlay images plus the frame buffers it promoted);
// the next view opened with the same Options draws on them and measures
// exactly what a private, pool-less engine does; a view whose flush fails
// gives back nothing, and leaks no pin either — and the pool, with its
// pages out, refuses to unmap its chunks until they are back.
func TestEngineCloseReturnsPages(t *testing.T) {
	stations := testExtension(t, 40)
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			private := loadModel(t, k, stations)
			defer private.Engine().Close()
			want := viewExercise(t, private, true)

			pp := disk.NewPagePool()
			opts := Options{BufferPages: 256, Pages: pp}
			base, err := LoadBase(k, opts, stations)
			if err != nil {
				t.Fatal(err)
			}
			defer base.Release()
			_, _, loaderPages := pp.Stats()
			if loaderPages == 0 {
				t.Error("the loader engine returned no frame buffer")
			}

			v, err := base.NewView(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := viewExercise(t, v.Model, true); got != want {
				t.Errorf("first view: counters %+v, want %+v", got, want)
			}
			cs, _ := disk.COWStatsOf(v.Engine().Dev.Backend())
			if cs.OverlayPages == 0 {
				t.Fatal("the update request dirtied no page")
			}
			_, _, before := pp.Stats()
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}
			_, _, after := pp.Stats()
			if after-before < cs.OverlayPages {
				t.Errorf("a view that dirtied %d pages returned %d buffers", cs.OverlayPages, after-before)
			}

			v, err = base.NewView(opts)
			if err != nil {
				t.Fatal(err)
			}
			_, hits0, _ := pp.Stats()
			if got := viewExercise(t, v.Model, true); got != want {
				t.Errorf("view over recycled pages: counters %+v, want %+v", got, want)
			}
			if _, hits, _ := pp.Stats(); hits == hits0 {
				t.Error("the second view drew nothing from the pool")
			}
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}

			// Every write fails, for good: the flush inside Close cannot
			// succeed, so the view's pages are the garbage collector's.
			opts.Faults = faultdisk.New(faultdisk.Spec{Seed: 3, Write: 1})
			v, err = base.NewView(opts)
			if err != nil {
				t.Fatal(err)
			}
			err = v.UpdateRoots([]int32{2, 5, 9}, func(i int32, r *cobench.RootRecord) {
				r.Name = fmt.Sprintf("upd #%d", i)
			})
			if err == nil {
				err = v.Flush()
			}
			if err == nil {
				t.Fatal("an update under a failing device reported no error")
			}
			_, _, before = pp.Stats()
			if err := v.Close(); err == nil {
				t.Error("Close after a failed flush reported no error")
			}
			if _, _, after := pp.Stats(); after != before {
				t.Errorf("a view that failed its flush returned %d buffers", after-before)
			}
			if err := v.Engine().Pool.Discard(); err != nil {
				t.Errorf("the failed view leaked a pin: %v", err)
			}
			// Its frame buffers are out, so the pool keeps its chunks
			// mapped until they are handed back by hand.
			if err := pp.Drain(); err == nil || !strings.Contains(err.Error(), "still out") {
				t.Errorf("Drain after a failed view: %v, want the pages it kept named", err)
			}
			if err := v.Engine().Pool.Release(); err != nil {
				t.Fatal(err)
			}
			if err := pp.Drain(); err != nil {
				t.Errorf("Drain once the failed view's buffers are back: %v", err)
			}
		})
	}
}

// drainedPool returns an empty page pool that must have every page back
// when the test and its deferred closes are done: Drain then unmaps its
// chunks.
func drainedPool(t *testing.T) *disk.PagePool {
	pp := disk.NewPagePool()
	t.Cleanup(func() {
		if err := pp.Drain(); err != nil {
			t.Error(err)
		}
	})
	return pp
}

// TestClosedViewKeepsNothing: what a view handed out as owned — a fetched
// Station, strings a caller cloned — stays intact after the view's pages
// went back to the pool and were written by its successor. Under `-tags
// poison` the pages are overwritten the moment they are given back, so a
// decoder that kept a slice of a frame fails here without the successor.
func TestClosedViewKeepsNothing(t *testing.T) {
	stations := testExtension(t, 40)
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			opts := Options{BufferPages: 256, Pages: drainedPool(t)}
			base, err := LoadBase(k, opts, stations)
			if err != nil {
				t.Fatal(err)
			}
			defer base.Release()
			update := func(v *View, tag string) {
				err := v.UpdateRoots([]int32{2, 5, 9}, func(i int32, r *cobench.RootRecord) {
					r.Name = fmt.Sprintf("%s #%d", tag, i)
				})
				if err == nil {
					err = v.Flush()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			v, err := base.NewView(opts)
			if err != nil {
				t.Fatal(err)
			}
			update(v, "first")
			got, err := v.FetchByKey(cobench.KeyOf(5))
			if err != nil {
				t.Fatal(err)
			}
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}
			if v, err = base.NewView(opts); err != nil {
				t.Fatal(err)
			}
			update(v, "other")
			defer v.Close()

			want := stations[5].Clone()
			want.Name = "first #5"
			if !got.Equal(want) {
				t.Errorf("an owned object changed after its view closed:\n got %+v\nwant %+v", got.Root(), want.Root())
			}
		})
	}
}

// TestReusedScaffoldIsolation: engines opened one after another over one
// page pool inherit each other's buffer-pool scaffolding (frame index,
// frames, free lists) and COW overlay tables. Views of two bases with
// different page counts, under LRU and Clock, alternate on one pool, and
// every cell reads and counts exactly what a fresh private engine of its
// kind and policy does: nothing an earlier engine left resident, dirty or
// overlaid is visible to the next.
func TestReusedScaffoldIsolation(t *testing.T) {
	type cell struct {
		kind     Kind
		stations []*cobench.Station
	}
	cells := []cell{{DSM, testExtension(t, 40)}, {DASDBSNSM, testExtension(t, 70)}}
	policies := []buffer.Policy{buffer.LRU, buffer.Clock}
	const frames = 12 // far below either base: every scan evicts

	// exercise scans every object, updates three roots with tag, flushes
	// and scans again, checking each object against the extension.
	exercise := func(m Model, stations []*cobench.Station, tag string) iostat.Stats {
		t.Helper()
		if err := m.Engine().ColdCache(); err != nil {
			t.Fatal(err)
		}
		m.Engine().ResetStats()
		updated := map[int]bool{}
		scan := func() {
			err := m.ScanAll(func(i int, got *cobench.Station) error {
				want := stations[i].Clone()
				if updated[i] {
					want.Name = tag
				}
				if !got.Equal(want) {
					t.Errorf("%s %s: object %d reads %q, want %q", m.Kind(), tag, i, got.Name, want.Name)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		scan()
		roots := []int32{2, 5, 9}
		if err := m.UpdateRoots(roots, func(_ int32, r *cobench.RootRecord) { r.Name = tag }); err != nil {
			t.Fatal(err)
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, i := range roots {
			updated[int(i)] = true
		}
		scan()
		return m.Engine().Stats()
	}

	pp := drainedPool(t)
	bases := make([]*SharedBase, len(cells))
	want := make([][]iostat.Stats, len(cells))
	for ci, c := range cells {
		var err error
		if bases[ci], err = LoadBase(c.kind, Options{Pages: pp}, c.stations); err != nil {
			t.Fatal(err)
		}
		defer bases[ci].Release()
		for _, pol := range policies {
			private := mustNew(c.kind, Options{BufferPages: frames, Policy: pol})
			if err := private.Load(c.stations); err != nil {
				t.Fatal(err)
			}
			want[ci] = append(want[ci], exercise(private, c.stations, "private"))
			private.Engine().Close()
		}
	}
	for round := range 3 {
		for ci, c := range cells {
			for pi, pol := range policies {
				v, err := bases[ci].NewViewAs(c.kind, Options{BufferPages: frames, Policy: pol, Pages: pp})
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("round %d %v", round, pol)
				if got := exercise(v.Model, c.stations, tag); got != want[ci][pi] {
					t.Errorf("%s %s: counters %+v, want a private engine's %+v", c.kind, tag, got, want[ci][pi])
				}
				if err := v.Close(); err != nil {
					t.Fatal(err)
				}
				if pp.Scaffolds() == 0 {
					t.Fatal("a closed view left no scaffolding in the page pool")
				}
			}
		}
	}
}
