//go:build poison

package store

import (
	"strings"
	"testing"

	"complexobj/cobench"
)

// TestKeptLentValuesReadPoison is the poison build's reason to exist: a
// caller that keeps what a view only lent — a scanned Station's slices and
// strings, a navigated root name or child list — past the view's next call
// reads 0xDB bytes, zero values and -1, never another object's data.
func TestKeptLentValuesReadPoison(t *testing.T) {
	stations := testExtension(t, 40)
	victim := 0
	for len(stations[victim].Platforms) == 0 || len(stations[victim].Children()) == 0 {
		victim++
	}
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			m := loadModel(t, k, stations)
			defer m.Engine().Close()
			var name string
			var plats []cobench.Platform
			scan := func(keep bool) {
				err := m.ScanAll(func(i int, s *cobench.Station) error {
					if keep && i == victim {
						name, plats = s.Name, s.Platforms
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			scan(false) // NSM's arena settles on one buffer; Reset overwrites only the current one
			scan(true)
			scan(false)
			if name != strings.Repeat("\xdb", len(stations[victim].Name)) {
				t.Errorf("a kept scanned name reads %q", name)
			}
			for i, p := range plats {
				if p.Nr != 0 || p.Information != "" || p.Conns != nil {
					t.Errorf("kept scanned platform %d reads %+v", i, p)
				}
			}

			root, kids, err := m.Navigate(victim)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := m.Navigate((victim + 1) % len(stations)); err != nil {
				t.Fatal(err)
			}
			if root.Name != strings.Repeat("\xdb", len(stations[victim].Name)) {
				t.Errorf("a kept navigated name reads %q", root.Name)
			}
			for _, c := range kids {
				if c != -1 {
					t.Errorf("a kept child list reads %v", kids)
					break
				}
			}
		})
	}
}
