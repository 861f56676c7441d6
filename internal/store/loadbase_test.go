package store

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/faultdisk"
)

// TestLoadReservesArena pins the sizing pass: for every model, over the
// default extension and the extreme configurations the sweeps generate
// (Figure 5's object sizes, Figure 6's smallest database, Table 7's
// skew), Load allocates the loader arena once and never moves it again,
// and what it reserved is within 5 % of what the load filled.
func TestLoadReservesArena(t *testing.T) {
	def := cobench.DefaultConfig()
	configs := map[string]cobench.Config{
		"default":  def,
		"maxSee=0": def.WithMaxSeeing(0),
		"maxSee30": def.WithMaxSeeing(30),
		"N=100":    def.WithN(100),
		"skewed":   def.Skewed(),
	}
	if testing.Short() {
		for name, c := range configs {
			configs[name] = c.WithN(200)
		}
	}
	for name, cfg := range configs {
		stations, err := cobench.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range AllKinds() {
			m := mustNew(k, Options{})
			if err := m.Load(stations); err != nil {
				t.Fatalf("%s %s: %v", name, k, err)
			}
			st, ok := disk.ArenaStatsOf(m.Engine().Dev.Backend())
			if !ok {
				t.Fatalf("%s %s: not a loader arena", name, k)
			}
			if want := m.Engine().Dev.NumPages() * disk.DefaultPageSize; st.Len != want {
				t.Errorf("%s %s: arena of %d bytes, device holds %d", name, k, st.Len, want)
			}
			if st.Moves != 1 {
				t.Errorf("%s %s: arena allocated %d times, want once (the reservation)", name, k, st.Moves)
			}
			if float64(st.Cap) > 1.05*float64(st.Len) {
				t.Errorf("%s %s: reserved %d bytes for an arena of %d (> 5 %% over)", name, k, st.Cap, st.Len)
			}
			m.Engine().Close()
		}
	}
}

// TestLoadSurvivesUnderEstimate forces a sizing pass that is too small —
// the counted-index ablation builds four B+-trees after the relations,
// pages the pass does not count — and checks the load grows past its
// reservation by the device's fallback and is still correct.
func TestLoadSurvivesUnderEstimate(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(120))
	if err != nil {
		t.Fatal(err)
	}
	m := mustNew(NSMIndex, Options{CountIndexIO: true})
	defer m.Engine().Close()
	if err := m.Load(stations); err != nil {
		t.Fatal(err)
	}
	st, _ := disk.ArenaStatsOf(m.Engine().Dev.Backend())
	if st.Moves < 2 {
		t.Fatalf("arena moved %d times: the index pages were expected to outgrow the reservation", st.Moves)
	}
	for i, want := range stations {
		got, err := m.FetchByAddress(i)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Fatalf("object %d differs after growing past the reservation", i)
		}
	}
}

// TestLoadBaseMatchesFreeze pins LoadBase ≡ Load + Freeze: the adopted
// arena and the copied one are the same bytes under the same metadata.
func TestLoadBaseMatchesFreeze(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(150))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			adopted, err := LoadBase(k, Options{}, stations)
			if err != nil {
				t.Fatal(err)
			}
			defer adopted.Release()
			loader := loadModel(t, k, stations)
			defer loader.Engine().Close()
			frozen, err := Freeze(loader)
			if err != nil {
				t.Fatal(err)
			}
			defer frozen.Release()
			if adopted.Kind() != k || adopted.NumPages() != frozen.NumPages() || adopted.PageSize() != frozen.PageSize() {
				t.Fatalf("adopted %s base of %d pages, frozen %s of %d",
					adopted.Kind(), adopted.NumPages(), frozen.Kind(), frozen.NumPages())
			}
			if !bytes.Equal(adopted.Meta(), frozen.Meta()) {
				t.Error("directory metadata differs")
			}
			if !bytes.Equal(checksumBase(adopted), checksumBase(frozen)) {
				t.Error("arena bytes differ")
			}
		})
	}
}

// TestAdoptConsumesLoader checks the ownership hand-off: after its arena
// became a base the loader is dead, and says so with a structured error
// on every path that would touch a page — never a nil-slice panic — while
// the base serves the extension.
func TestAdoptConsumesLoader(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(40))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			loader := mustNew(k, Options{})
			defer loader.Engine().Close()
			if err := loader.Load(stations); err != nil {
				t.Fatal(err)
			}
			base, err := adopt(loader)
			if err != nil {
				t.Fatal(err)
			}
			defer base.Release()
			if _, err := loader.FetchByKey(stations[3].Key); !errors.Is(err, disk.ErrDetached) {
				t.Errorf("fetch on a consumed loader: %v, want disk.ErrDetached", err)
			}
			if _, _, err := loader.Navigate(3); !errors.Is(err, disk.ErrDetached) {
				t.Errorf("navigate on a consumed loader: %v, want disk.ErrDetached", err)
			}
			if err := loader.UpdateObject(3, func(*cobench.Station) error { return nil }); !errors.Is(err, disk.ErrDetached) {
				t.Errorf("update on a consumed loader: %v, want disk.ErrDetached", err)
			}
			if _, err := adopt(loader); !errors.Is(err, disk.ErrDetached) {
				t.Errorf("second adopt: %v, want disk.ErrDetached", err)
			}
			if _, err := Freeze(loader); !errors.Is(err, disk.ErrDetached) {
				t.Errorf("freeze of a consumed loader: %v, want disk.ErrDetached", err)
			}
			view, err := base.NewView(Options{BufferPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer view.Engine().Close()
			got, err := view.FetchByKey(stations[3].Key)
			if err != nil || !stations[3].Equal(got) {
				t.Errorf("base built from the adopted arena: object 3 = %v, %v", got, err)
			}
		})
	}
}

// TestFreezeLiveModelIsolated pins what Freeze keeps over LoadBase: the
// model lives on, and nothing it writes afterwards reaches the base — a
// view scans the base while the model is being updated (run under -race).
func TestFreezeLiveModelIsolated(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(60))
	if err != nil {
		t.Fatal(err)
	}
	live := loadModel(t, DSM, stations)
	defer live.Engine().Close()
	base, err := Freeze(live)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()
	before := append([]byte(nil), checksumBase(base)...)
	view, err := base.NewView(Options{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer view.Engine().Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 3; round++ {
			err := view.ScanAll(func(i int, s *cobench.Station) error {
				if !stations[i].Equal(s) {
					t.Errorf("round %d: base object %d changed under a live writer", round, i)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}
	}()
	all := make([]int32, len(stations))
	for i := range all {
		all[i] = int32(i)
	}
	for round := 0; round < 3; round++ {
		if err := live.UpdateRoots(all, func(_ int32, r *cobench.RootRecord) { r.Name = "written after the freeze" }); err != nil {
			t.Fatal(err)
		}
		if err := live.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if !bytes.Equal(before, checksumBase(base)) {
		t.Error("writes to the live model reached the frozen arena")
	}
	if got, err := live.FetchByAddress(0); err != nil || got.Name != "written after the freeze" {
		t.Errorf("live model lost its own write: %v, %v", got, err)
	}
}

// TestViewKindOverSharedLayout pins one base per physical layout: a
// DASDBS-DSM view over the DSM base returns the generator's objects, is a
// DASDBS-DSM model in every report, and a kind of another layout is
// refused; an NSM+index view over the NSM base returns the generator's
// objects too.
func TestViewKindOverSharedLayout(t *testing.T) {
	if DASDBSDSM.Layout() != DSM {
		t.Fatalf("DASDBS-DSM layout = %s, want DSM", DASDBSDSM.Layout())
	}
	if NSMIndex.Layout() != NSM {
		t.Fatalf("NSM+index layout = %s, want NSM", NSMIndex.Layout())
	}
	for _, k := range AllKinds() {
		if k != DASDBSDSM && k != NSMIndex && k.Layout() != k {
			t.Errorf("%s layout = %s, want its own", k, k.Layout())
		}
	}
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(80))
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadBase(DSM, Options{}, stations)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()
	v, err := base.NewViewAs(DASDBSDSM, Options{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if v.Kind() != DASDBSDSM || v.Model.Sizes().Model != DASDBSDSM.String() {
		t.Errorf("view runs %s and reports %q", v.Kind(), v.Model.Sizes().Model)
	}
	err = v.ScanAll(func(i int, s *cobench.Station) error {
		if !stations[i].Equal(s) {
			t.Errorf("object %d differs through the DASDBS-DSM view", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Partial access is the DASDBS-DSM strategy: navigation reads fewer
	// pages than the DSM view of the very same base does.
	own, err := base.NewView(Options{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer own.Close()
	pagesRead := func(v *View) int64 {
		if _, err := v.Recycle(); err != nil {
			t.Fatal(err)
		}
		for i := range stations {
			if _, _, err := v.Navigate(i); err != nil {
				t.Fatal(err)
			}
		}
		return v.Engine().Stats().PagesRead
	}
	if partial, whole := pagesRead(v), pagesRead(own); partial >= whole {
		t.Errorf("DASDBS-DSM view read %d pages navigating, DSM view %d: access strategy not selected by the view's kind", partial, whole)
	}
	// Recycle after a write and Rebase keep the view's kind.
	if err := v.UpdateRoots([]int32{1}, func(_ int32, r *cobench.RootRecord) { r.Name = "x" }); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Recycle(); err != nil {
		t.Fatal(err)
	}
	if err := v.Rebase(); err != nil {
		t.Fatal(err)
	}
	if v.Kind() != DASDBSDSM {
		t.Errorf("view became %s after recycle and rebase", v.Kind())
	}
	if _, err := base.NewViewAs(NSM, Options{}); err == nil {
		t.Error("an NSM view opened over a DSM base")
	}

	nsmBase, err := LoadBase(NSM, Options{}, stations)
	if err != nil {
		t.Fatal(err)
	}
	defer nsmBase.Release()
	xv, err := nsmBase.NewViewAs(NSMIndex, Options{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer xv.Close()
	if xv.Kind() != NSMIndex || xv.Model.Sizes().Model != NSMIndex.String() {
		t.Errorf("view runs %s and reports %q", xv.Kind(), xv.Model.Sizes().Model)
	}
	for i, want := range stations {
		got, err := xv.FetchByAddress(i) // only the indexed variant has addresses
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Errorf("object %d differs through the NSM+index view", i)
		}
	}
}

// BenchmarkLoadBase is the bench-regress row of the load path: one
// 300-station extension loaded into a base, per model. B/op is the row's
// point — the arena allocated once at its final size, not grown by
// doubling and then copied.
func BenchmarkLoadBase(b *testing.B) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(300))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range AllKinds() {
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				base, err := LoadBase(k, Options{}, stations)
				if err != nil {
					b.Fatal(err)
				}
				if err := base.Release(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestLoadBaseFreesItsArena pins the lifetime of a loader arena, which
// lives outside the Go heap and so is freed by its owner or not at all:
// LoadBase's arena stays live as long as the base, goes at the base's
// Release, and a load that fails midway (every write past page 40 fails,
// with a pool small enough to write during the load) frees it before
// LoadBase returns. A private engine frees its arena at Close, and a
// frozen copy at its base's Release.
func TestLoadBaseFreesItsArena(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(150))
	if err != nil {
		t.Fatal(err)
	}
	live := disk.LiveArenaBytes
	if n := live(); n != 0 {
		t.Fatalf("%d loader-arena bytes live before the test: an earlier test leaked an engine or a base", n)
	}
	for _, k := range AllKinds() {
		base, err := LoadBase(k, Options{}, stations)
		if err != nil {
			t.Fatal(err)
		}
		if n := live(); n < int64(base.ArenaBytes()) {
			t.Errorf("%s: %d loader-arena bytes live under a %d-byte base", k, n, base.ArenaBytes())
		}
		if err := base.Release(); err != nil {
			t.Fatal(err)
		}
		if n := live(); n != 0 {
			t.Errorf("%s: %d loader-arena bytes live after the base's release, want 0", k, n)
		}

		in := faultdisk.New(faultdisk.Spec{Seed: 3, Write: 1, PageLo: 40})
		if _, err := LoadBase(k, Options{BufferPages: 8, Faults: in}, stations); err == nil {
			t.Fatalf("%s: a load whose writes fail returned a base", k)
		}
		if n := live(); n != 0 {
			t.Errorf("%s: %d loader-arena bytes live after a failed load, want 0", k, n)
		}

		m := loadModel(t, k, stations)
		frozen, err := Freeze(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Engine().Close(); err != nil {
			t.Fatal(err)
		}
		if n := live(); n != int64(frozen.ArenaBytes()) {
			t.Errorf("%s: %d loader-arena bytes live with only a frozen copy of %d bytes", k, n, frozen.ArenaBytes())
		}
		if err := frozen.Release(); err != nil {
			t.Fatal(err)
		}
		if n := live(); n != 0 {
			t.Errorf("%s: %d loader-arena bytes live after the frozen copy's release, want 0", k, n)
		}
	}
}
