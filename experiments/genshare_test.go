package experiments

import (
	"sync"
	"testing"

	"complexobj/cobench"
)

// TestGenShare pins the suite's transient generation share: overlapping
// requests for one configuration other than the suite's own generate once,
// the extension dies with its last user, and a later request regenerates —
// nothing is retained between cells.
func TestGenShare(t *testing.T) {
	s := New(Config{Gen: cobench.DefaultConfig().WithN(20)})
	defer s.Close()
	gen := cobench.DefaultConfig().WithN(30)

	var wg sync.WaitGroup
	releases := make([]func() error, 8)
	stations := make([][]*cobench.Station, 8)
	for i := range releases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, release, err := s.extension(gen)
			if err != nil {
				t.Error(err)
				return
			}
			stations[i], releases[i] = st, release
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if s.exts.Built() != 1 {
		t.Fatalf("8 overlapping requests generated %d times, want 1", s.exts.Built())
	}
	for _, st := range stations[1:] {
		if len(st) != len(stations[0]) || st[0] != stations[0][0] {
			t.Fatal("requesters got different extensions")
		}
	}
	for _, release := range releases[:7] {
		if err := release(); err != nil {
			t.Fatal(err)
		}
	}
	if s.exts.Len() != 1 {
		t.Fatalf("extension dropped while a user is live (Len %d)", s.exts.Len())
	}
	releases[7]()
	releases[7]() // idempotent per request
	if s.exts.Len() != 0 {
		t.Fatalf("extension retained after its last release (Len %d)", s.exts.Len())
	}

	// A fresh request after the drop regenerates, deterministically.
	st, release, err := s.extension(gen)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if s.exts.Built() != 2 {
		t.Fatalf("re-request generated %d times total, want 2", s.exts.Built())
	}
	if len(st) != 30 || len(st) != len(stations[0]) {
		t.Fatalf("regenerated extension has %d stations, want 30", len(st))
	}

	// Distinct configurations never share an entry.
	_, release2, err := s.extension(gen.WithN(40))
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	if s.exts.Len() != 2 || s.exts.Built() != 3 {
		t.Fatalf("distinct config: Len %d Built %d, want 2 and 3", s.exts.Len(), s.exts.Built())
	}
}

// TestAllBuildsEachConfigurationOnce pins how much a whole reproduction
// generates and loads, at every width: each configuration's extension once
// (the suite's own, Figure 5's two other columns, Figure 6's six sizes,
// the skewed one) and each (layout, configuration) base once (three of
// the suite's own, two per Figure 5 column and Figure 6 size, three for
// Table 7). A sweep point's layout groups share its extension however
// they are scheduled. The one rebuild left is the distribution ablation's:
// it needs the skewed extension and its DSM base after Table 7 let them
// go, and holding them across sections would raise the suite's peak.
func TestAllBuildsEachConfigurationOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("three whole reproductions")
	}
	const exts, bases = 10 + 1, 22 + 1
	for _, workers := range []int{1, 2, 8} {
		cfg := smallConfig()
		cfg.Workers = workers
		s := New(cfg)
		if _, err := s.All(); err != nil {
			t.Fatal(err)
		}
		if got := s.exts.Built(); got != exts {
			t.Errorf("workers=%d: %d extensions generated, want %d", workers, got, exts)
		}
		if got := s.bases.Built(); got != bases {
			t.Errorf("workers=%d: %d bases loaded, want %d", workers, got, bases)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
