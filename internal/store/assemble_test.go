package store

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"complexobj/cobench"
	"complexobj/nf2"
)

// TestAssemblyAllocBudgets pins what an assembled object costs: at most six
// allocations per station — the Station, its Platforms, its Seeings, the
// Connection backing and the string backing make five — however many STR
// attributes it carries, on every model and on both the point and the scan
// path; navigation, which projects the child references,
// stays under four (the root name and the reference list's growth steps);
// and a value selection assembles only its match.
func TestAssemblyAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race the counts are the detector's, not the assembler's")
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
				got := testing.AllocsPerRun(5, func() {
					if _, err := m.FetchByAddress(i); err != nil {
						t.Fatal(err)
					}
				})
				if got > 6 {
					t.Errorf("FetchByAddress(%d): %v allocations, budget 6", i, got)
				}
			}
			perObject := func(what string, budget float64, fn func() error) {
				t.Helper()
				got := testing.AllocsPerRun(5, func() {
					if err := fn(); err != nil {
						t.Fatal(err)
					}
				}) / float64(len(stations))
				if got > budget {
					t.Errorf("%s: %.2f allocations per object, budget %v", what, got, budget)
				}
			}
			perObject("ScanAll", 6, func() error {
				return m.ScanAll(func(int, *cobench.Station) error { return nil })
			})
			perObject("Navigate", 4, func() error {
				for i := range stations {
					if _, _, err := m.Navigate(i); err != nil {
						return err
					}
				}
				return nil
			})
			// A selection over 60 objects costs one assembled station plus
			// the scan's own fixed overhead, not 60 stations.
			perObject("FetchByKey", 0.5, func() error {
				_, err := m.FetchByKey(cobench.KeyOf(42))
				return err
			})
		})
	}
}

// TestAssembledStationsOutliveTheView: decoded objects own what they hold.
// Stations kept from a scan and from point fetches still equal the
// generator's after every page they were decoded from has been rewritten,
// the view committed, recycled and rebased, and the scratch they were cut
// from reused by later reads — while another goroutine keeps reading them
// (run under -race).
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

			var kept []*cobench.Station
			scan := func(keep bool) {
				t.Helper()
				err := v.ScanAll(func(_ int, s *cobench.Station) error {
					if keep {
						kept = append(kept, s)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			scan(true)
			for i := range stations {
				if k == NSM {
					break
				}
				s, err := v.FetchByAddress(i)
				if err != nil {
					t.Fatal(err)
				}
				kept = append(kept, s)
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
				err := v.Model().UpdateObject(i, func(s *cobench.Station) error {
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
			rec, err := m.plats.Get(rid)
			if err != nil {
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
			rec, err := m.seeings.Get(rid)
			if err != nil {
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
			if err := tc.corrupt(v.Model().(*nsm)); err != nil {
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
// (fetch: FetchByAddress round-robin) and on the scan path (scan: ScanAll
// repeated until b.N objects were delivered — run it with a -benchtime that
// is a multiple of the 300 objects). allocs/op is the gated number.
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
