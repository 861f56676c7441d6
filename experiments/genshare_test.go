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

// oneOffConfigs are the configurations a reproduction of s generates and
// drops: the skewed extension, Figure 5's other columns and Figure 6's
// sizes other than the suite's own.
func oneOffConfigs(s *Suite) []cobench.Config {
	out := []cobench.Config{s.cfg.Gen.Skewed(), s.cfg.Gen.WithMaxSeeing(0), s.cfg.Gen.WithMaxSeeing(30)}
	for _, n := range Fig6Sizes {
		if gen := s.cfg.Gen.WithN(n); gen != s.cfg.Gen {
			out = append(out, gen)
		}
	}
	return out
}

// freshBytes is what generating gens, all held at once, draws from an
// empty free list.
func freshBytes(t testing.TB, gens ...cobench.Config) int64 {
	var l cobench.FreeList
	for _, gen := range gens {
		if _, err := l.Generate(gen); err != nil {
			t.Fatal(err)
		}
	}
	return l.FreshBytes()
}

// TestSuiteRecyclesExtensions: a paper-scale reproduction two workers wide
// draws fresh extension memory for its own extension and for the largest
// set of one-off extensions it holds at once — Figure 5's two other
// columns, which outweigh the skewed extension and every Figure 6 size
// together — and cuts every other one-off extension from the memory of
// those dropped before it (within 10 %). Without the free list it drew the
// sum of all of them.
func TestSuiteRecyclesExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("a whole paper-scale reproduction")
	}
	cfg := DefaultConfig()
	cfg.Workers = 2
	s := New(cfg)
	defer s.Close()
	if _, err := s.All(); err != nil {
		t.Fatal(err)
	}
	gen := s.cfg.Gen
	own := freshBytes(t, gen)
	fig5 := freshBytes(t, gen.WithMaxSeeing(0), gen.WithMaxSeeing(30))
	var fig6 []cobench.Config
	for _, n := range Fig6Sizes[:len(Fig6Sizes)-1] {
		fig6 = append(fig6, gen.WithN(n))
	}
	if skew, sizes := freshBytes(t, gen.Skewed()), freshBytes(t, fig6...); skew > fig5 || sizes > fig5 {
		t.Fatalf("fresh bytes: skew %d, Figure 6 sizes %d, Figure 5 columns %d: the Figure 5 pair is no longer the largest live set", skew, sizes, fig5)
	}
	sum := int64(0)
	for _, g := range oneOffConfigs(s) {
		sum += freshBytes(t, g)
	}
	sum += freshBytes(t, gen.Skewed()) // the distribution ablation's regeneration
	got, bound := s.extMem.FreshBytes(), (own+fig5)*11/10
	t.Logf("fresh extension bytes: %d KiB (own %d KiB + Figure 5 pair %d KiB; every one-off fresh: %d KiB)",
		got>>10, own>>10, fig5>>10, (own+sum)>>10)
	if got > bound {
		t.Errorf("a reproduction drew %d KiB of extension memory fresh, want at most %d KiB", got>>10, bound>>10)
	}
}

// BenchmarkSweepExtensions generates the one-off configurations a
// reproduction sweeps through one suite's extension cache, dropping each
// before the next: from the second op on every extension is cut from the
// memory of the ones dropped before it, so B/op and allocs/op (CI-gated)
// are the cache's and the generator's bookkeeping, and a regression to
// fresh memory shows as megabytes.
func BenchmarkSweepExtensions(b *testing.B) {
	s := New(DefaultConfig())
	defer s.Close()
	gens := oneOffConfigs(s)
	sweep := func() {
		for _, gen := range gens {
			_, release, err := s.extension(gen)
			if err != nil {
				b.Fatal(err)
			}
			release()
		}
	}
	sweep() // draws the largest extension's memory
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}
