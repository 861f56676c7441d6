package store_test

import (
	"testing"

	"complexobj/cobench"
	"complexobj/internal/store"
	"complexobj/internal/workload"
)

// ablationQueries are the queries the index ablation measures.
var ablationQueries = []cobench.Query{cobench.Q1a, cobench.Q1b, cobench.Q2a, cobench.Q2b, cobench.Q3b}

// indexStats reads a counted model's B+-tree footprint.
func indexStats(t *testing.T, m store.Model) (pages, height int) {
	t.Helper()
	ix, ok := m.(interface{ IndexStats() (int, int) })
	if !ok {
		t.Fatalf("%s model reports no index footprint", m.Kind())
	}
	return ix.IndexStats()
}

// TestCountedViewMatchesPrivateLoad pins the counted NSM+index view: built
// on a view of the NSM layout's base, its B+-trees land on the pages a
// private counted load gives them, so every ablation query measures the
// same pages, calls, fixes and writes, and the trees have the same size.
func TestCountedViewMatchesPrivateLoad(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(150))
	if err != nil {
		t.Fatal(err)
	}
	w := cobench.Workload{Loops: 20, Samples: 8, Seed: 5}
	opts := store.Options{BufferPages: 64, CountIndexIO: true}

	private, err := store.New(store.NSMIndex, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer private.Engine().Close()
	if err := private.Load(stations); err != nil {
		t.Fatal(err)
	}
	base, err := store.LoadBase(store.NSM, store.Options{}, stations)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()
	v, err := base.NewViewAs(store.NSMIndex, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if s := v.Engine().Stats(); s.Pages() != 0 || s.BufferFixes != 0 || s.PagesWritten != 0 {
		t.Errorf("a counted view starts with counters %+v, want zero", s)
	}

	want, got := workload.NewRunner(private, w), workload.NewRunner(v, w)
	for _, q := range ablationQueries {
		pr, err := want.Run(q)
		if err != nil {
			t.Fatalf("private %s: %v", q, err)
		}
		vr, err := got.Run(q)
		if err != nil {
			t.Fatalf("view %s: %v", q, err)
		}
		p, g := pr.PerUnit(), vr.PerUnit()
		if p.Pages != g.Pages || p.Calls != g.Calls || p.Fixes != g.Fixes || p.PagesWritten != g.PagesWritten {
			t.Errorf("query %s: counted view measures %+v, private load %+v", q, g, p)
		}
	}
	pp, ph := indexStats(t, private)
	vp, vh := indexStats(t, v.Model())
	if pp == 0 || pp != vp || ph != vh {
		t.Errorf("index footprint: view %d pages height %d, private %d pages height %d", vp, vh, pp, ph)
	}
}

// TestCountedViewIsSingleUse pins the counted view's refusals: its trees
// live in its overlay, which Recycle and Rebase drop and Commit would
// publish, so all three refuse; and a kind without an index refuses
// CountIndexIO outright.
func TestCountedViewIsSingleUse(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(30))
	if err != nil {
		t.Fatal(err)
	}
	base, err := store.LoadBase(store.NSM, store.Options{}, stations)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()
	v, err := base.NewViewAs(store.NSMIndex, store.Options{CountIndexIO: true})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if _, err := v.Recycle(); err == nil {
		t.Error("a counted view recycled")
	}
	if err := v.Rebase(); err == nil {
		t.Error("a counted view rebased")
	}
	if _, err := v.Commit(nil); err == nil {
		t.Error("a counted view committed")
	}
	if base.Gen() != 0 {
		t.Errorf("base at generation %d after the refusals, want 0", base.Gen())
	}

	if _, err := base.NewViewAs(store.NSM, store.Options{CountIndexIO: true}); err == nil {
		t.Error("an NSM view accepted CountIndexIO")
	}
	dsm, err := store.LoadBase(store.DSM, store.Options{}, stations)
	if err != nil {
		t.Fatal(err)
	}
	defer dsm.Release()
	if _, err := dsm.NewView(store.Options{CountIndexIO: true}); err == nil {
		t.Error("a DSM view accepted CountIndexIO")
	}
}
