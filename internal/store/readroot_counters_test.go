package store

import (
	"testing"

	"complexobj/internal/iostat"
	"complexobj/internal/xrand"
)

// TestReadRootCountersUnchanged holds query 2b's shape — Navigate a root,
// Navigate its children, ReadRoot its grand-children, loop after loop over
// one warming cache too small for the extension — to the counters the
// commit before the single longobj read measured: what a read copies out
// is not what it transfers, and only the latter is counted.
func TestReadRootCountersUnchanged(t *testing.T) {
	want := map[Kind]iostat.Stats{ // taken at the parent commit
		DSM:       {PagesRead: 1445, ReadCalls: 779, BufferFixes: 1754, BufferHits: 309},
		DASDBSDSM: {PagesRead: 676, ReadCalls: 676, BufferFixes: 944, BufferHits: 268},
		NSM:       {PagesRead: 89, ReadCalls: 89, BufferFixes: 1188, BufferHits: 1099},
		NSMIndex:  {PagesRead: 66, ReadCalls: 66, BufferFixes: 993, BufferHits: 927},
		DASDBSNSM: {PagesRead: 64, ReadCalls: 64, BufferFixes: 629, BufferHits: 565},
	}
	stations := testExtension(t, 200)
	for _, k := range AllKinds() {
		m := mustNew(k, Options{BufferPages: 96})
		if err := m.Load(stations); err != nil {
			t.Fatalf("%s load: %v", k, err)
		}
		if err := m.Engine().ColdCache(); err != nil {
			t.Fatal(err)
		}
		m.Engine().ResetStats()
		rng := xrand.New(2)
		for loop := 0; loop < 25; loop++ {
			_, kids, err := m.Navigate(rng.Intn(len(stations)))
			if err != nil {
				t.Fatal(err)
			}
			var grand []int32
			for _, c := range append([]int32(nil), kids...) {
				_, kids, err := m.Navigate(int(c))
				if err != nil {
					t.Fatal(err)
				}
				grand = append(grand, kids...)
			}
			for _, g := range grand {
				if _, err := m.ReadRoot(int(g)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := m.Engine().Stats(); got != want[k] {
			t.Errorf("%s: %#v, want %#v", k, got, want[k])
		}
		m.Engine().Close()
	}
}
