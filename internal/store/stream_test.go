package store

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"complexobj/cobench"
)

// TestColdScanStagesOneObjectsSightseeings pins the bound of NSM's streamed
// scan: in physical = object order (a fresh load), a cold scan's staging
// never holds more than one object's sightseeing rows — its row array ends
// no larger than appending the largest object's rows one by one makes it —
// and all it allocates — every object's root, platform and connection
// rows and strings included — is less than the sightseeing rows and
// strings alone that a staging of the whole relation holds (not checked
// under -race or the poison tag, whose scratch allocates on its own).
func TestColdScanStagesOneObjectsSightseeings(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(300).WithMaxSeeing(16))
	if err != nil {
		t.Fatal(err)
	}
	most, whole := 0, 0
	for _, s := range stations {
		most = max(most, len(s.Seeings))
		for _, g := range s.Seeings {
			whole += int(unsafe.Sizeof(row[cobench.Sightseeing]{})) +
				len(g.Description) + len(g.Location) + len(g.History) + len(g.Remarks)
		}
	}
	var one []row[cobench.Sightseeing]
	for range most {
		one = append(one, row[cobench.Sightseeing]{})
	}
	base, err := LoadBase(NSM, Options{}, stations)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()
	for _, k := range []Kind{NSM, NSMIndex} {
		stages := new(ScanStages)
		v, err := base.NewViewAs(k, Options{BufferPages: 64, Scans: stages})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := 0
		err = v.ScanAll(func(i int, s *cobench.Station) error {
			if i != n || !s.Equal(stations[i]) {
				return fmt.Errorf("object %d handed out as the %d-th: %v", i, n, s)
			}
			n++
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if n != len(stations) {
			t.Fatalf("%s: scan handed out %d objects, want %d", k, n, len(stations))
		}
		a := stages.take()
		if cap(a.sees) > cap(one) {
			t.Errorf("%s: staging grew to %d sightseeing rows; one object's (at most %d) grow it to %d",
				k, cap(a.sees), most, cap(one))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(whole) && !raceEnabled && !poison {
			t.Errorf("%s: a cold scan allocated %d bytes; the sightseeing rows and strings of the extension are %d", k, got, whole)
		}
		stages.put(a)
		v.Close()
	}
}

// TestScanCallbackHoldsNoFrame: fn runs with no frame of the scan pinned,
// so on a buffer of one frame a fetch from inside fn finds one free; it
// would fail with buffer.ErrNoFrames if the scan held it.
func TestScanCallbackHoldsNoFrame(t *testing.T) {
	stations := testExtension(t, 60)
	base, err := LoadBase(NSM, Options{}, stations)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()
	for _, k := range []Kind{NSM, NSMIndex} {
		v, err := base.NewViewAs(k, Options{BufferPages: 1})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		err = v.ScanAll(func(i int, s *cobench.Station) error {
			want := s.Clone()
			got, err := v.FetchByKey(want.Key)
			if err != nil {
				return fmt.Errorf("FetchByKey(%d) inside the scan: %w", want.Key, err)
			}
			if !got.Equal(want) || !want.Equal(stations[i]) {
				return fmt.Errorf("object %d: scanned %v, fetched %v", i, want, got)
			}
			n++
			return nil
		})
		if err != nil || n != len(stations) {
			t.Errorf("%s: scan on one frame: %v after %d objects", k, err, n)
		}
		v.Close()
	}
}

// TestWriteInsideScanRefused holds every model to the write-inside-scan
// contract of Model.ScanAll: from inside fn, UpdateRoots, UpdateObject and
// a view's Commit, Recycle and Rebase return ErrScanInProgress and change
// nothing; once the scan has returned, the same writes succeed.
func TestWriteInsideScanRefused(t *testing.T) {
	stations := testExtension(t, 20)
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
			rename := func(_ int32, r *cobench.RootRecord) { r.Name = "written" }
			grow := func(s *cobench.Station) error {
				s.Seeings = append(s.Seeings, cobench.Sightseeing{Nr: 99, Remarks: "written"})
				return nil
			}
			writes := map[string]func() error{
				"UpdateRoots":  func() error { return v.UpdateRoots([]int32{0}, rename) },
				"UpdateObject": func() error { return v.Model().UpdateObject(1, grow) },
				"Commit":       func() error { _, err := v.Commit(nil); return err },
				"Recycle":      func() error { _, err := v.Recycle(); return err },
				"Rebase":       v.Rebase,
			}
			err = v.ScanAll(func(i int, s *cobench.Station) error {
				if i != 2 {
					return nil
				}
				for op, write := range writes {
					if err := write(); !errors.Is(err, ErrScanInProgress) {
						return fmt.Errorf("%s inside the scan: %v, want ErrScanInProgress", op, err)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := scanStations(t, v); !sameStations(got, stations) {
				t.Fatal("a refused write changed what the view reads")
			}
			if v.dirty() {
				t.Fatal("a refused write left the view dirty")
			}
			if err := v.UpdateRoots([]int32{0}, rename); err != nil {
				t.Fatalf("UpdateRoots after the scan: %v", err)
			}
			if err := v.Model().UpdateObject(1, grow); err != nil {
				t.Fatalf("UpdateObject after the scan: %v", err)
			}
			if _, err := v.Commit(nil); err != nil {
				t.Fatalf("Commit after the scan: %v", err)
			}
		})
	}
}
