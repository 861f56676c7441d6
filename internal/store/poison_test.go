//go:build poison

package store

import (
	"bytes"
	"strings"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/disk"
)

// TestKeptLentValuesReadPoison is the poison build's reason to exist: a
// caller that keeps what a view only lent — a fetched or scanned Station's
// slices and strings, a navigated root name or child list — past the
// view's next call reads 0xDB bytes, zero values and -1, never another
// object's data.
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

			// A point fetch lends the same way.
			fetch := func(i int) *cobench.Station {
				t.Helper()
				var s *cobench.Station
				var err error
				if k == NSM {
					s, err = m.FetchByKey(stations[i].Key) // no address access
				} else {
					s, err = m.FetchByAddress(i)
				}
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			fetch(victim) // as for the scan: the arena settles first
			kept := fetch(victim)
			name, plats = kept.Name, kept.Platforms
			fetch((victim + 1) % len(stations))
			if name != strings.Repeat("\xdb", len(stations[victim].Name)) {
				t.Errorf("a kept fetched name reads %q", name)
			}
			for i, p := range plats {
				if p.Nr != 0 || p.Information != "" || p.Conns != nil {
					t.Errorf("kept fetched platform %d reads %+v", i, p)
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

// TestKeptIntScratchReadsPoison: an IntScratch result kept past the next
// call reads -1 — whether the next call reuses the array or grows a new
// one — and the new scratch starts as -1 too, never as leftovers.
func TestKeptIntScratchReadsPoison(t *testing.T) {
	e, err := NewEngine(Options{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	allMinusOne := func(s []int) bool {
		for _, v := range s {
			if v != -1 {
				return false
			}
		}
		return true
	}
	kept := e.IntScratch(16)
	for i := range kept {
		kept[i] = i
	}
	next := e.IntScratch(8)
	if !allMinusOne(kept) || !allMinusOne(next) {
		t.Errorf("after a reusing call: kept %v, handed out %v", kept, next)
	}
	for i := range next {
		next[i] = i
	}
	grown := e.IntScratch(4096)
	if !allMinusOne(next) || !allMinusOne(grown) {
		t.Errorf("after a growing call: kept %v, handed out %v...", next, grown[:8])
	}
}

// TestKeptPagesReadPoisonAfterClose: a frame's Data — a buffer the pool
// owns after MarkDirty, or an overlay image it borrows after the flush —
// kept past the engine's Close reads 0xDB, with a page pool or without:
// the bytes are the next engine's from that moment on.
func TestKeptPagesReadPoisonAfterClose(t *testing.T) {
	stations := testExtension(t, 20)
	for _, pp := range []*disk.PagePool{nil, disk.NewPagePool(0)} {
		opts := Options{BufferPages: 64, Pages: pp}
		base, err := LoadBase(NSM, opts, stations)
		if err != nil {
			t.Fatal(err)
		}
		v, err := base.NewView(opts)
		if err != nil {
			t.Fatal(err)
		}
		pool := v.Engine().Pool
		keep := func(id disk.PageID, write bool) []byte {
			f, err := pool.Fix(id)
			if err != nil {
				t.Fatal(err)
			}
			if write {
				pool.MarkDirty(f)
			}
			if err := pool.Unfix(id, write); err != nil {
				t.Fatal(err)
			}
			return f.Data // the bug: valid only while pinned
		}
		keep(0, true)
		if err := v.Engine().ColdCache(); err != nil { // page 0 is an overlay image now
			t.Fatal(err)
		}
		borrowed, owned := keep(0, false), keep(1, true)
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{0xDB}, len(owned))
		if !bytes.Equal(owned, want) {
			t.Errorf("pool %v: a kept owned frame buffer reads %x...", pp != nil, owned[:8])
		}
		if !bytes.Equal(borrowed, want) {
			t.Errorf("pool %v: a kept borrowed overlay image reads %x...", pp != nil, borrowed[:8])
		}
		base.Release()
	}
}
