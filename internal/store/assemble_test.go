package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"complexobj/cobench"
	"complexobj/nf2"
)

// TestAssemblyAllocBudgets pins what a read costs: every read lends, so
// nothing once the view's scratch has held the largest object it reads.
// After one warm-up pass FetchByAddress, FetchByKey, ScanAll, Navigate and
// ReadRoot allocate nothing at all, on every model (NSM's scan reuses the
// relation-ordered staging the previous scan gave back); a value selection
// assembles only its match, into the same scratch.
func TestAssemblyAllocBudgets(t *testing.T) {
	if raceEnabled || poison {
		t.Skip("under -race the counts are the detector's, under the poison tag scratch is never reused")
	}
	stations := testExtension(t, 60)
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			m := loadModel(t, k, stations)
			defer m.Engine().Close()
			for i := range stations {
				if k == NSM {
					break // no address access
				}
				// AllocsPerRun's own warm-up call sizes the scratch for object i.
				got := testing.AllocsPerRun(5, func() {
					if _, err := m.FetchByAddress(i); err != nil {
						t.Fatal(err)
					}
				})
				if got > 0 {
					t.Errorf("FetchByAddress(%d): %v allocations, want 0", i, got)
				}
			}
			// AllocsPerRun's own warm-up call is the pass that sizes the scratch.
			total := func(what string, budget float64, fn func() error) {
				t.Helper()
				got := testing.AllocsPerRun(5, func() {
					if err := fn(); err != nil {
						t.Fatal(err)
					}
				})
				if got > budget {
					t.Errorf("%s: %v allocations over %d objects, budget %v", what, got, len(stations), budget)
				}
			}
			total("ScanAll", 0, func() error {
				return m.ScanAll(func(int, *cobench.Station) error { return nil })
			})
			total("Navigate", 0, func() error {
				for i := range stations {
					if _, _, err := m.Navigate(i); err != nil {
						return err
					}
				}
				return nil
			})
			total("ReadRoot", 0, func() error {
				for i := range stations {
					if _, err := m.ReadRoot(i); err != nil {
						return err
					}
				}
				return nil
			})
			total("FetchByKey", 0, func() error {
				_, err := m.FetchByKey(cobench.KeyOf(42))
				return err
			})
		})
	}
}

// TestScanStagingPassesBetweenViews: the rows and strings an NSM scan
// stages belong to no view of the engines sharing Options.Scans. A view
// opened after another view's scans starts on the staging they settled,
// so its first scan costs less than half of what the very first one did
// (that one also chunked and then settled the strings); a scan run from
// inside another's callback holds a second staging, and both go back;
// views scanning from several goroutines share them and still read every
// object right. A view opened without Scans keeps its own.
func TestScanStagingPassesBetweenViews(t *testing.T) {
	stations := testExtension(t, 200)
	for _, k := range []Kind{NSM, NSMIndex} {
		t.Run(k.String(), func(t *testing.T) {
			stages := new(ScanStages)
			opts := Options{BufferPages: 64, Scans: stages}
			base, err := LoadBase(k, opts, stations)
			if err != nil {
				t.Fatal(err)
			}
			defer base.Release()
			held := func() int {
				stages.mu.Lock()
				defer stages.mu.Unlock()
				return len(stages.free)
			}
			open := func(o Options) *View {
				t.Helper()
				v, err := base.NewView(o)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { v.Close() })
				return v
			}
			scan := func(v *View, inside func(i int) error) uint64 {
				t.Helper()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				err := v.ScanAll(func(i int, _ *cobench.Station) error { return inside(i) })
				runtime.ReadMemStats(&m1)
				if err != nil {
					t.Fatal(err)
				}
				return m1.TotalAlloc - m0.TotalAlloc
			}
			none := func(int) error { return nil }

			first := open(opts)
			cold := scan(first, none)
			scan(first, none)
			if got := held(); got != 1 {
				t.Fatalf("after one view's scans %d stagings held, want 1", got)
			}
			fresh := scan(open(opts), none)
			if fresh*2 > cold && !poison && !raceEnabled {
				t.Errorf("a new view's first scan allocated %d B, the first scan of all %d B: want under half", fresh, cold)
			}
			own := open(Options{BufferPages: 64})
			scan(own, none)
			if got := held(); got != 1 {
				t.Errorf("a view without Scans gave its staging to the shared ones: %d held, want 1", got)
			}
			inner := open(opts)
			scan(open(opts), func(i int) error {
				if i > 0 {
					return nil
				}
				if got := held(); got != 0 {
					t.Errorf("during a scan %d stagings held, want 0", got)
				}
				scan(inner, none)
				return nil
			})
			if got := held(); got != 2 {
				t.Errorf("after a scan inside a scan %d stagings held, want 2", got)
			}

			// Views scanning at once pass stagings between goroutines
			// (run under -race); every lent object is still right.
			var wg sync.WaitGroup
			for range 4 {
				v := open(opts)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range 3 {
						err := v.ScanAll(func(i int, s *cobench.Station) error {
							if !s.Equal(stations[i]) {
								return fmt.Errorf("object %d differs from the generator's", i)
							}
							return nil
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if got := held(); got < 2 || got > 6 {
				t.Errorf("after concurrent scans %d stagings held, want 2 to 6", got)
			}
		})
	}
}

// TestAssembledStationsOutliveTheView: what a caller copies out of a read
// owns what it holds. Clones of fetched and scanned Stations — the copies
// the complexobj.DB facade hands out (TestDBFetchesOutliveTheView there) —
// still equal the generator's after every page they were decoded from has
// been rewritten, the view committed, recycled and rebased, and the
// scratch the reads decode into reused again and again — while another
// goroutine keeps reading them (run under -race). What a read lends is
// TestLentResultsAreRightInsideTheCall's.
func TestAssembledStationsOutliveTheView(t *testing.T) {
	stations := testExtension(t, 40)
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			loaded := loadModel(t, k, stations)
			defer loaded.Engine().Close()
			base, err := Freeze(loaded)
			if err != nil {
				t.Fatal(err)
			}
			defer base.Release()
			v, err := base.NewView(Options{BufferPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()

			var kept []*cobench.Station // kept[j] is object j % len(stations)
			scan := func(keep bool) {
				t.Helper()
				err := v.ScanAll(func(_ int, s *cobench.Station) error {
					if keep {
						kept = append(kept, s.Clone())
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			scan(true)
			for i := range stations {
				s, err := v.FetchByKey(stations[i].Key)
				if err != nil {
					t.Fatal(err)
				}
				kept = append(kept, s.Clone())
			}
			for i := range stations {
				if k == NSM {
					break
				}
				s, err := v.FetchByAddress(i)
				if err != nil {
					t.Fatal(err)
				}
				kept = append(kept, s.Clone())
				scan(false) // a clone is not cut from the arena the fetch lent from
			}
			check := func() {
				for j, s := range kept {
					if !s.Equal(stations[j%len(stations)]) {
						t.Errorf("kept station %d no longer equals the generator's", j)
						return
					}
				}
			}

			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					check()
				}
			}()
			for i := range stations {
				err := v.Model.UpdateObject(i, func(s *cobench.Station) error {
					s.Name = "overwritten"
					for pi := range s.Platforms {
						s.Platforms[pi].Information = "overwritten"
						for ci := range s.Platforms[pi].Conns {
							s.Platforms[pi].Conns[ci].DepartureTimes = "overwritten"
						}
					}
					for gi := range s.Seeings {
						s.Seeings[gi].Description, s.Seeings[gi].Remarks = "overwritten", "overwritten"
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
			scan(false)
			if _, err := v.Commit(nil); err != nil {
				t.Fatal(err)
			}
			if _, err := v.Recycle(); err != nil {
				t.Fatal(err)
			}
			if err := v.Rebase(); err != nil {
				t.Fatal(err)
			}
			scan(false)
			wg.Wait()
			check()
		})
	}
}

// TestLentResultsAreRightInsideTheCall: every read lends, and what it
// lends equals the generator's for as long as the contract says — until
// the view's next call — on every model: across two consecutive scans (the
// second decodes into the scratch the first left), for point fetches from
// inside the scan callback (the scan goes on right after one), for
// FetchByAddress and FetchByKey back to back, and for the root names and
// child lists of Navigate and ReadRoot called back to back.
func TestLentResultsAreRightInsideTheCall(t *testing.T) {
	stations := testExtension(t, 40)
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			base, err := LoadBase(k, Options{}, stations)
			if err != nil {
				t.Fatal(err)
			}
			defer base.Release()
			v, err := base.NewView(Options{BufferPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()

			var lent *cobench.Station
			for round := 0; round < 2; round++ {
				seen := 0
				err := v.ScanAll(func(i int, s *cobench.Station) error {
					if !s.Equal(stations[i]) {
						t.Errorf("scan %d: object %d differs from the generator's", round, i)
					}
					if lent != nil && s != lent {
						t.Errorf("scan %d: object %d came in a fresh Station, not the lent one", round, i)
					}
					lent = s
					if k != NSM && i%7 == 0 {
						j := (i + 3) % len(stations)
						o, err := v.FetchByAddress(j)
						if err != nil {
							return err
						}
						if !o.Equal(stations[j]) {
							t.Errorf("scan %d: FetchByAddress(%d) from the callback differs", round, j)
						}
					}
					seen++
					return nil
				})
				if err != nil || seen != len(stations) {
					t.Fatalf("scan %d: %v after %d objects", round, err, seen)
				}
			}
			for i, want := range stations {
				j := (i + 1) % len(stations)
				if k != NSM {
					if s, err := v.FetchByAddress(i); err != nil || !s.Equal(want) {
						t.Errorf("FetchByAddress(%d): %v", i, err)
					}
				}
				if s, err := v.FetchByKey(stations[j].Key); err != nil || !s.Equal(stations[j]) {
					t.Errorf("FetchByKey of object %d after FetchByAddress(%d): %v", j, i, err)
				}
			}

			for i, want := range stations {
				root, kids, err := v.Navigate(i)
				if err != nil {
					t.Fatal(err)
				}
				if root != want.Root() || !slices.Equal(kids, want.Children()) {
					t.Errorf("Navigate(%d) = %v, %v", i, root, kids)
				}
				if (kids == nil) != (len(want.Children()) == 0) {
					t.Errorf("Navigate(%d): child list nil = %v for %d children", i, kids == nil, len(want.Children()))
				}
				j := (i + 1) % len(stations)
				if root, err = v.ReadRoot(j); err != nil || root != stations[j].Root() {
					t.Errorf("ReadRoot(%d) after Navigate(%d) = %v, %v", j, i, root, err)
				}
			}
		})
	}
}

// TestNSMSelectionPropagatesCorruption: pure NSM's value selection (query
// 1b) used to skip any tuple that did not decode, so a corrupt sub-record
// came back as a station quietly missing a platform or a sightseeing. The
// first undecodable tuple now ends the query with the decoder's error.
func TestNSMSelectionPropagatesCorruption(t *testing.T) {
	stations := testExtension(t, 20)
	loaded := loadModel(t, NSM, stations)
	defer loaded.Engine().Close()
	base, err := Freeze(loaded)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()
	victim := 0
	for len(stations[victim].Platforms) == 0 || len(stations[victim].Seeings) == 0 {
		victim++
	}
	other := stations[victim+1].Key
	for name, tc := range map[string]struct {
		keys    []int32 // the selections that must fail
		corrupt func(m *nsm) error
	}{
		// The root key still decodes, so only the selection that wants
		// this platform meets the Information length that does not.
		"platform string length": {[]int32{stations[victim].Key}, func(m *nsm) error {
			rid := m.platRIDs[victim][0]
			var rec []byte
			if err := m.plats.View(rid, func(r []byte) error { rec = slices.Clone(r); return nil }); err != nil {
				return err
			}
			off := binary.BigEndian.Uint16(rec[2+2*5:])
			rec[off], rec[off+1] = 0xff, 0xff
			return m.plats.Update(rid, rec)
		}},
		// Not even the root key decodes — the tuple claims to be longer
		// than its record — so every selection fails.
		"sightseeing length header": {[]int32{stations[victim].Key, other}, func(m *nsm) error {
			rid := m.seeingRIDs[victim][0]
			var rec []byte
			if err := m.seeings.View(rid, func(r []byte) error { rec = slices.Clone(r); return nil }); err != nil {
				return err
			}
			rec[0] ^= 0x80
			return m.seeings.Update(rid, rec)
		}},
	} {
		t.Run(name, func(t *testing.T) {
			v, err := base.NewView(Options{BufferPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			if got, err := v.FetchByKey(stations[victim].Key); err != nil || !got.Equal(stations[victim]) {
				t.Fatalf("pristine view: %v", err)
			}
			if err := tc.corrupt(v.Model.(*nsm)); err != nil {
				t.Fatal(err)
			}
			for _, key := range tc.keys {
				if s, err := v.FetchByKey(key); !errors.Is(err, nf2.ErrCorrupt) {
					t.Errorf("FetchByKey(%d) over a corrupt tuple = %v, %v; want nf2.ErrCorrupt", key, s, err)
				}
			}
		})
	}
}

// BenchmarkAssemble is one station assembled, per model, on the point path
// (fetch: FetchByAddress round-robin, lent) and on the scan path
// (scan: ScanAll repeated until b.N objects were delivered, each lent — run
// it with a -benchtime that is a multiple of the 300 objects; one untimed
// scan sizes the view's scratch first). allocs/op is the gated number, and
// 0 on the scan path is a hard pin.
func BenchmarkAssemble(b *testing.B) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(300))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range AllKinds() {
		m := mustNew(k, Options{BufferPages: 256})
		if err := m.Load(stations); err != nil {
			b.Fatal(err)
		}
		if k != NSM {
			b.Run(k.String()+"/fetch", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := m.FetchByAddress(i % len(stations)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(k.String()+"/scan", func(b *testing.B) {
			b.ReportAllocs()
			if err := m.ScanAll(func(int, *cobench.Station) error { return nil }); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			done := errors.New("delivered b.N objects")
			for seen := 0; seen < b.N; {
				err := m.ScanAll(func(int, *cobench.Station) error {
					if seen++; seen == b.N {
						return done
					}
					return nil
				})
				if err != nil && err != done {
					b.Fatal(err)
				}
			}
		})
		m.Engine().Close()
	}
}

// BenchmarkNavigate and BenchmarkReadRoot are query 2's two steps, per
// model, round-robin over 300 objects: the root name and the child list are
// lent, so after the first lap — b.N is a multiple of 300 in CI — both pin
// 0 allocs/op.
func BenchmarkNavigate(b *testing.B) {
	benchRoots(b, func(m Model, i int) error { _, _, err := m.Navigate(i); return err })
}

func BenchmarkReadRoot(b *testing.B) {
	benchRoots(b, func(m Model, i int) error { _, err := m.ReadRoot(i); return err })
}

// BenchmarkUpdateRoots is query 3's write step, one root per op: the record
// mutate is handed lives in the model, so what an update allocates is what
// its mutate does — here nothing, a hard pin.
func BenchmarkUpdateRoots(b *testing.B) {
	stamp := func(_ int32, r *cobench.RootRecord) { r.Name = "upd 7 #7" }
	idx := make([]int32, 1)
	benchRoots(b, func(m Model, i int) error {
		idx[0] = int32(i)
		return m.UpdateRoots(idx, stamp)
	})
}

// BenchmarkUpdateObject is the structural write path, one object per op
// round-robin: grown by twenty sightseeings — past its page run, so a
// direct object relocates and NSM reinserts its sub-tuples — then shrunk
// back. allocs/op and B/op are gated: the owned fetch, the mutation and
// the re-encodes, and no table copied on a model that loaded its own.
func BenchmarkUpdateObject(b *testing.B) {
	const extra = 20
	grow := func(s *cobench.Station) error {
		for j := 0; j < extra; j++ {
			s.Seeings = append(s.Seeings, cobench.Sightseeing{Nr: int32(100 + j), Description: "grown", Location: "here"})
		}
		return nil
	}
	shrink := func(s *cobench.Station) error { s.Seeings = s.Seeings[:len(s.Seeings)-extra]; return nil }
	benchRoots(b, func(m Model, i int) error {
		if err := m.UpdateObject(i, grow); err != nil {
			return err
		}
		return m.UpdateObject(i, shrink)
	})
}

func benchRoots(b *testing.B, read func(m Model, i int) error) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(300))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range AllKinds() {
		m := mustNew(k, Options{BufferPages: 256})
		if err := m.Load(stations); err != nil {
			b.Fatal(err)
		}
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := range stations { // the lap that sizes the scratch
				if err := read(m, i); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := read(m, i%len(stations)); err != nil {
					b.Fatal(err)
				}
			}
		})
		m.Engine().Close()
	}
}
