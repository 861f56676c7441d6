package complexobj

import (
	"errors"
	"sync"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/disk"
)

func smallDB(t *testing.T, kind ModelKind) *DB {
	t.Helper()
	db, err := OpenLoaded(kind, Options{BufferPages: 128}, cobench.DefaultConfig().WithN(80))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() }) // its arena is outside the Go heap
	return db
}

func TestModelNames(t *testing.T) {
	want := map[ModelKind]string{
		DSM: "DSM", DASDBSDSM: "DASDBS-DSM", NSM: "NSM",
		NSMIndex: "NSM+index", DASDBSNSM: "DASDBS-NSM",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), w)
		}
		// Round-trip through both the display name and the short alias.
		got, err := ModelByName(w)
		if err != nil || got != k {
			t.Errorf("ModelByName(%q) = %v, %v", w, got, err)
		}
	}
	for alias, k := range map[string]ModelKind{
		"dsm": DSM, "ddsm": DASDBSDSM, "nsm": NSM, "nsmx": NSMIndex, "dnsm": DASDBSNSM,
	} {
		if got, err := ModelByName(alias); err != nil || got != k {
			t.Errorf("ModelByName(%q) = %v, %v", alias, got, err)
		}
	}
	if _, err := ModelByName("bogus"); err == nil {
		t.Error("bogus model accepted")
	}
	if len(AllModels()) != 5 {
		t.Error("AllModels wrong")
	}
}

func TestOpenLoadFetch(t *testing.T) {
	for _, kind := range AllModels() {
		db := smallDB(t, kind)
		if db.Kind() != kind || db.NumObjects() != 80 {
			t.Fatalf("%s: kind/objects wrong", kind)
		}
		s, err := db.FetchByKey(cobench.KeyOf(10))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if s.Key != cobench.KeyOf(10) {
			t.Fatalf("%s: wrong station", kind)
		}
		if db.Stats().Pages() == 0 {
			t.Errorf("%s: no I/O counted", kind)
		}
	}
}

func TestAddressAccessErrors(t *testing.T) {
	db := smallDB(t, NSM)
	if _, err := db.FetchByAddress(0); !errors.Is(err, ErrNoAddressAccess) {
		t.Errorf("pure NSM FetchByAddress err = %v", err)
	}
	db2 := smallDB(t, DSM)
	if _, err := db2.FetchByAddress(0); err != nil {
		t.Errorf("DSM FetchByAddress: %v", err)
	}
}

func TestEmptyDatabase(t *testing.T) {
	db, err := Open(DSM, Options{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.FetchByKey(1)
	if !errors.Is(err, ErrNotLoaded) {
		t.Errorf("empty fetch err = %v", err)
	}
	if _, err := db.Run(cobench.Q1c, cobench.DefaultWorkload()); !errors.Is(err, ErrNotLoaded) {
		t.Errorf("empty run err = %v", err)
	}
}

func TestNavigateAndUpdate(t *testing.T) {
	db := smallDB(t, DASDBSNSM)
	root, children, err := db.Navigate(3)
	if err != nil {
		t.Fatal(err)
	}
	if root.Key != cobench.KeyOf(3) {
		t.Error("navigate root mismatch")
	}
	if len(children) > 0 {
		if _, err := db.ReadRoot(int(children[0])); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.UpdateRoots([]int32{3}, func(_ int32, r *cobench.RootRecord) {
		r.Name = "renamed"
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	r, err := db.ReadRoot(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "renamed" {
		t.Error("update lost")
	}
}

func TestStatsAccounting(t *testing.T) {
	db := smallDB(t, DSM)
	before := db.Stats()
	if before.Pages() != 0 {
		t.Fatalf("fresh DB has stats: %+v", before)
	}
	if _, err := db.FetchByAddress(0); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if after.PagesRead == 0 || after.ReadCalls == 0 || after.BufferFixes == 0 {
		t.Errorf("fetch not accounted: %+v", after)
	}
	db.ResetStats()
	if db.Stats().Pages() != 0 {
		t.Error("ResetStats failed")
	}
}

func TestScanAll(t *testing.T) {
	db := smallDB(t, NSMIndex)
	count := 0
	err := db.ScanAll(func(i int, s *cobench.Station) error {
		if s.Key != cobench.KeyOf(i) {
			t.Fatalf("scan order broken at %d", i)
		}
		count++
		return nil
	})
	if err != nil || count != 80 {
		t.Fatalf("scan: %v, %d objects", err, count)
	}
}

func TestSizes(t *testing.T) {
	db := smallDB(t, NSM)
	sizes := db.Sizes()
	if len(sizes) != 4 {
		t.Fatalf("NSM sizes: %d relations", len(sizes))
	}
	total := 0
	for _, r := range sizes {
		total += r.Pages
		if r.Tuples < 0 || r.AvgTupleBytes <= 0 {
			t.Errorf("bad relation %+v", r)
		}
	}
	if total == 0 {
		t.Error("no pages reported")
	}
}

func TestRunBenchmark(t *testing.T) {
	w := cobench.Workload{Loops: 10, Samples: 5, Seed: 1}
	for _, kind := range []ModelKind{DSM, DASDBSNSM} {
		db := smallDB(t, kind)
		results, err := db.RunBenchmark(w)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(results) != 7 {
			t.Fatalf("%s: %d results", kind, len(results))
		}
		for _, r := range results {
			if !r.Supported {
				t.Errorf("%s %s unsupported", kind, r.Query)
			}
			if r.Pages <= 0 || r.Raw.Pages() <= 0 {
				t.Errorf("%s %s: no pages", kind, r.Query)
			}
		}
	}
}

func TestClockReplacementOption(t *testing.T) {
	db, err := OpenLoaded(DSM, Options{BufferPages: 64, ClockReplacement: true},
		cobench.DefaultConfig().WithN(40))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Run(cobench.Q2b, cobench.Workload{Loops: 20, Samples: 5, Seed: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleLoadRejected(t *testing.T) {
	db := smallDB(t, DSM)
	stations, _ := cobench.Generate(cobench.DefaultConfig().WithN(5))
	if err := db.Load(stations); err == nil {
		t.Error("double load accepted")
	}
}

func TestCountIndexIOOption(t *testing.T) {
	gen := cobench.DefaultConfig().WithN(120)
	free, err := OpenLoaded(NSMIndex, Options{BufferPages: 128}, gen)
	if err != nil {
		t.Fatal(err)
	}
	defer free.Close()
	counted, err := OpenLoaded(NSMIndex, Options{BufferPages: 128, CountIndexIO: true}, gen)
	if err != nil {
		t.Fatal(err)
	}
	defer counted.Close()
	// Same answers either way.
	a, err := free.FetchByAddress(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := counted.FetchByAddress(7)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("counted index returns different object")
	}
	// But the counted variant pays more I/O for the same cold fetch.
	free.ColdCache()
	free.ResetStats()
	counted.ColdCache()
	counted.ResetStats()
	free.FetchByAddress(9)
	counted.FetchByAddress(9)
	if counted.Stats().PagesRead <= free.Stats().PagesRead {
		t.Errorf("counted index reads %d pages, free %d; expected more",
			counted.Stats().PagesRead, free.Stats().PagesRead)
	}
}

// TestBaseViewsRefuseCountIndexIO pins the facade's contract: counted
// index I/O is for private databases, so every view of a base refuses it
// — Base.Open, Base.NewView and a pool's first Acquire.
func TestBaseViewsRefuseCountIndexIO(t *testing.T) {
	db, err := OpenLoaded(NSMIndex, Options{}, cobench.DefaultConfig().WithN(30))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	base, err := db.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	counted := Options{CountIndexIO: true}
	if _, err := base.Open(counted); err == nil {
		t.Error("Base.Open accepted CountIndexIO")
	}
	if _, err := base.NewView(counted); err == nil {
		t.Error("Base.NewView accepted CountIndexIO")
	}
	pool, err := NewViewPool(base, counted, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Acquire(); err == nil {
		t.Error("a view pool's Acquire accepted CountIndexIO")
	}
}

func TestUpdateObjectFacade(t *testing.T) {
	db := smallDB(t, DASDBSNSM)
	err := db.UpdateObject(5, func(s *cobench.Station) error {
		s.Seeings = append(s.Seeings, cobench.Sightseeing{
			Nr: 99, Description: "facade", Location: "x", History: "y", Remarks: "z",
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	got, err := db.FetchByAddress(5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range got.Seeings {
		if g.Nr == 99 && g.Description == "facade" {
			found = true
		}
	}
	if !found {
		t.Error("structural update not visible")
	}
	if got.NoSeeing != int32(len(got.Seeings)) {
		t.Error("counter not refreshed")
	}
}

// TestBaseFacade exercises the shared-base surface end to end: freeze a
// loaded database, open independent copy-on-write views, check isolation
// between them, and restore a view from a snapshot through OpenBase and
// its one-view shorthand OpenSnapshot.
func TestBaseFacade(t *testing.T) {
	db := smallDB(t, DASDBSNSM)
	defer db.Close()
	base, err := db.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if base.Kind() != DASDBSNSM || base.NumPages() == 0 ||
		base.ArenaBytes() != base.NumPages()*2048 {
		t.Fatalf("base geometry: kind=%s pages=%d bytes=%d", base.Kind(), base.NumPages(), base.ArenaBytes())
	}

	writer, err := base.Open(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	reader, err := base.Open(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if writer.NumObjects() != 80 || reader.NumObjects() != 80 {
		t.Fatalf("views lost objects: %d/%d", writer.NumObjects(), reader.NumObjects())
	}

	key := cobench.KeyOf(7)
	if err := writer.UpdateRoots([]int32{7}, func(i int32, r *cobench.RootRecord) {
		r.Name = "written through view"
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
	if got.Name != "written through view" {
		t.Error("writer view does not observe its own update")
	}
	other, err := reader.FetchByKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if other.Name == "written through view" {
		t.Error("sibling view observes writer's update")
	}

	// Snapshot round trip through the base and the one-view shorthand.
	path := t.TempDir() + "/facade.codb"
	gen := cobench.DefaultConfig().WithN(80)
	if err := WriteSnapshot(path, gen, db); err != nil {
		t.Fatal(err)
	}
	fromBase, err := OpenBase(path, DASDBSNSM)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := fromBase.Open(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	v2, err := OpenSnapshot(path, DASDBSNSM, Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	for name, v := range map[string]*DB{"OpenBase": v1, "OpenSnapshot": v2} {
		s, err := v.FetchByKey(key)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Key != key {
			t.Errorf("%s: wrong station restored", name)
		}
	}
}

// TestDBResultsAreOwned: the storage models lend what they scan and
// navigate; the facade hands out copies. Everything a DB method returns or
// passes a callback is kept here, unclone'd, and still equals the
// generator's after every object has been rewritten in place, the cache
// emptied and the same reads repeated over the model's scratch — with
// another goroutine reading the kept values meanwhile (run under -race).
func TestDBResultsAreOwned(t *testing.T) {
	gen := cobench.DefaultConfig().WithN(40)
	stations, err := cobench.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range AllModels() {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := OpenLoaded(kind, Options{BufferPages: 64}, gen)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			var objs []*cobench.Station // objs[j] is object j % len(stations)
			var roots []cobench.RootRecord
			var kids [][]int32
			read := func(keep bool) {
				t.Helper()
				var scanned []*cobench.Station
				var got []cobench.RootRecord
				var lists [][]int32
				if err := db.ScanAll(func(_ int, s *cobench.Station) error { scanned = append(scanned, s); return nil }); err != nil {
					t.Fatal(err)
				}
				for i := range stations {
					s, err := db.FetchByKey(stations[i].Key)
					if err != nil {
						t.Fatal(err)
					}
					scanned = append(scanned, s)
				}
				for i := range stations {
					root, children, err := db.Navigate(i)
					if err != nil {
						t.Fatal(err)
					}
					got, lists = append(got, root), append(lists, children)
				}
				for i := range stations {
					root, err := db.ReadRoot(i)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, root)
				}
				if keep {
					objs, roots, kids = scanned, got, lists
				}
			}
			read(true)
			all := make([]int32, len(stations))
			for i := range all {
				all[i] = int32(i)
			}
			// UpdateRoots lends mutate the stored name too; keep it, write it back.
			err = db.UpdateRoots(all, func(_ int32, r *cobench.RootRecord) { roots = append(roots, *r) })
			if err != nil {
				t.Fatal(err)
			}
			check := func() {
				for j, s := range objs {
					if !s.Equal(stations[j%len(stations)]) {
						t.Errorf("kept station %d no longer equals the generator's", j)
						return
					}
				}
				for j, r := range roots {
					if r != stations[j%len(stations)].Root() {
						t.Errorf("kept root %d reads %+v", j, r)
						return
					}
				}
				for j, list := range kids {
					if want := stations[j].Children(); len(list) != len(want) || (len(want) > 0 && list[0] != want[0]) {
						t.Errorf("kept child list %d reads %v", j, list)
						return
					}
				}
			}
			check()

			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 10; round++ {
					check()
				}
			}()
			for i := range stations {
				err := db.UpdateObject(i, func(s *cobench.Station) error {
					s.Name = "overwritten"
					for pi := range s.Platforms {
						s.Platforms[pi].Information = "overwritten"
						for ci := range s.Platforms[pi].Conns {
							s.Platforms[pi].Conns[ci].OidConnection = 0
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.ColdCache(); err != nil {
				t.Fatal(err)
			}
			read(false)
			wg.Wait()
			check()
		})
	}
}

// TestDBFetchesOutliveTheView: the storage models lend what they fetch;
// DB.FetchByAddress and DB.FetchByKey hand out copies. Kept as returned, a
// fetched Station still equals the generator's after every object was
// rewritten, the view under the database committed, recycled and rebased,
// and the model's scratch reused by fetch after fetch — while another
// goroutine reads the kept values (run under -race).
func TestDBFetchesOutliveTheView(t *testing.T) {
	gen := cobench.DefaultConfig().WithN(40)
	stations, err := cobench.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range AllModels() {
		t.Run(kind.String(), func(t *testing.T) {
			loaded, err := OpenLoaded(kind, Options{BufferPages: 64}, gen)
			if err != nil {
				t.Fatal(err)
			}
			base, err := loaded.Freeze()
			loaded.Close()
			if err != nil {
				t.Fatal(err)
			}
			defer base.Close()
			v, err := base.NewView(Options{BufferPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			db := newDB(kind, v.sv.Model) // the facade over the view's model

			var kept []*cobench.Station // kept[j] is object j % len(stations)
			fetch := func(keep bool) {
				t.Helper()
				for i := range stations {
					s, err := db.FetchByKey(stations[i].Key)
					if err != nil {
						t.Fatal(err)
					}
					if keep {
						kept = append(kept, s)
					}
				}
				for i := range stations {
					if kind == NSM {
						break // no address access
					}
					s, err := db.FetchByAddress(i)
					if err != nil {
						t.Fatal(err)
					}
					if keep {
						kept = append(kept, s)
					}
				}
			}
			check := func() {
				for j, s := range kept {
					if !s.Equal(stations[j%len(stations)]) {
						t.Errorf("kept station %d no longer equals the generator's", j)
						return
					}
				}
			}
			fetch(true)
			check()

			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					check()
				}
			}()
			for i := range stations {
				err := db.UpdateObject(i, func(s *cobench.Station) error {
					s.Name = "overwritten"
					for pi := range s.Platforms {
						s.Platforms[pi].Information = "overwritten"
					}
					for gi := range s.Seeings {
						s.Seeings[gi].Description = "overwritten"
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			fetch(false)
			if _, err := v.sv.Commit(nil); err != nil {
				t.Fatal(err)
			}
			if _, err := v.sv.Recycle(); err != nil {
				t.Fatal(err)
			}
			if err := v.sv.Rebase(); err != nil {
				t.Fatal(err)
			}
			fetch(false)
			wg.Wait()
			check()
		})
	}
}

// TestDBCloseFreesArena pins the lifetime of a database's arena, which
// lives outside the Go heap and so is freed by its owner or not at all:
// DB.Close frees it, and a frozen copy goes at its Base's Close,
// whichever comes first.
func TestDBCloseFreesArena(t *testing.T) {
	if n := disk.LiveArenaBytes(); n != 0 {
		t.Fatalf("%d loader-arena bytes live before the test: an earlier test leaked a database or a base", n)
	}
	for _, kind := range []ModelKind{DSM, NSMIndex, DASDBSNSM} {
		db := smallDB(t, kind)
		base, err := db.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if n := disk.LiveArenaBytes(); n != int64(base.ArenaBytes()) {
			t.Errorf("%s: %d loader-arena bytes live after DB.Close, want the frozen copy's %d", kind, n, base.ArenaBytes())
		}
		if err := base.Close(); err != nil {
			t.Fatal(err)
		}
		if n := disk.LiveArenaBytes(); n != 0 {
			t.Errorf("%s: %d loader-arena bytes live after DB.Close and Base.Close, want 0", kind, n)
		}
	}
}
