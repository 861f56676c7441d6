package cobench

import (
	"testing"
	"unsafe"
)

// sweepConfigs are the extensions a reproduction generates: the paper's
// default, the §5.5 skew, the Figure 5 object-size extremes and the
// Figure 6 database sizes.
func sweepConfigs() []Config {
	def := DefaultConfig()
	out := []Config{def, def.Skewed(), def.WithMaxSeeing(0), def.WithMaxSeeing(30)}
	for _, n := range []int{100, 200, 400, 700, 1000} {
		out = append(out, def.WithN(n))
	}
	return out
}

// TestFreeListGeneratesEqual: an extension cut from recycled chunks is,
// station for station, the extension Generate makes fresh — for every
// configuration a reproduction sweeps, in an order that hands a large
// extension's chunks to a small one and a small one's to a large one.
// Once every configuration has run, a second round draws nothing fresh.
func TestFreeListGeneratesEqual(t *testing.T) {
	cfgs := sweepConfigs()
	fresh := make([][]*Station, len(cfgs))
	for i, c := range cfgs {
		fresh[i] = mustGenerate(t, c)
	}
	// Largest and smallest alternate: ms30, N100, skew, N200, default, ...
	order := []int{3, 4, 1, 5, 0, 6, 8, 7, 2}
	var l FreeList
	round := func() {
		for _, i := range order {
			e, err := l.Generate(cfgs[i])
			if err != nil {
				t.Fatal(err)
			}
			if len(e.Stations) != len(fresh[i]) {
				t.Fatalf("%+v: %d stations from recycled chunks, want %d", cfgs[i], len(e.Stations), len(fresh[i]))
			}
			for j, s := range e.Stations {
				if !s.Equal(fresh[i][j]) {
					t.Fatalf("%+v: station %d cut from recycled chunks differs from a fresh Generate's", cfgs[i], j)
				}
			}
			e.Release()
		}
	}
	round()
	drawn := l.FreshBytes()
	order = append(order[1:], order[0]) // a different neighbour for each
	round()
	if again := l.FreshBytes(); again != drawn {
		t.Errorf("a second round drew %d bytes fresh, want 0: the first round's chunks should serve it", again-drawn)
	}
}

// TestReleasePoisonsStrings: under the poison tag a string kept past its
// extension's Release reads 0xDB instead of the next extension's data.
func TestReleasePoisonsStrings(t *testing.T) {
	if !poison {
		t.Skip("needs -tags poison")
	}
	var l FreeList
	e, err := l.Generate(DefaultConfig().WithN(20))
	if err != nil {
		t.Fatal(err)
	}
	kept := e.Stations[3].Name
	e.Release()
	b := unsafe.Slice(unsafe.StringData(kept), len(kept))
	for i, c := range b {
		if c != 0xDB {
			t.Fatalf("byte %d of a name kept past Release is %#x, want 0xDB", i, c)
		}
	}
}

// TestFreeListGenerateError: an invalid configuration fails as Generate's
// does, and gives back what it drew.
func TestFreeListGenerateError(t *testing.T) {
	var l FreeList
	if _, err := l.Generate(Config{}); err == nil {
		t.Fatal("a zero Config generated")
	}
	if n := l.FreshBytes(); n != 0 {
		t.Errorf("a refused configuration drew %d bytes", n)
	}
}
