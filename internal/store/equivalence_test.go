package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"complexobj/cobench"
)

// equivConfig is a randomly drawn small benchmark configuration for the
// cross-model equivalence property.
type equivConfig struct {
	N         int
	Prob      float64
	Fanout    int
	MaxSeeing int
	Seed      uint64
}

// Generate implements quick.Generator with bounds that keep each case
// cheap while covering degenerate shapes (no platforms, no sightseeings,
// high fanout).
func (equivConfig) Generate(rng *rand.Rand, _ int) reflect.Value {
	c := equivConfig{
		N:         5 + rng.Intn(40),
		Prob:      float64(rng.Intn(11)) / 10, // 0.0 .. 1.0
		Fanout:    1 + rng.Intn(4),
		MaxSeeing: rng.Intn(20),
		Seed:      rng.Uint64(),
	}
	return reflect.ValueOf(c)
}

// TestQuickCrossModelEquivalence is the central storage-correctness
// property: for any generated extension, every storage model must return
// exactly the same objects through every read path.
func TestQuickCrossModelEquivalence(t *testing.T) {
	f := func(c equivConfig) bool {
		cfg := cobench.Config{N: c.N, Prob: c.Prob, Fanout: c.Fanout, MaxSeeing: c.MaxSeeing, Seed: c.Seed}
		stations, err := cobench.Generate(cfg)
		if err != nil {
			t.Logf("generate: %v", err)
			return false
		}
		models := make([]Model, 0, len(AllKinds()))
		for _, k := range AllKinds() {
			m := mustNew(k, Options{BufferPages: 64})
			defer m.Engine().Close()
			if err := m.Load(stations); err != nil {
				t.Logf("%s load: %v", k, err)
				return false
			}
			models = append(models, m)
		}
		// Scan equivalence.
		for _, m := range models {
			err := m.ScanAll(func(i int, s *cobench.Station) error {
				if !s.Equal(stations[i]) {
					return fmt.Errorf("%s: scan mismatch at %d", m.Kind(), i)
				}
				return nil
			})
			if err != nil {
				t.Log(err)
				return false
			}
		}
		// Point reads and navigation on a few sampled objects.
		for probe := 0; probe < 3; probe++ {
			i := (probe*7 + int(c.Seed%5)) % c.N
			want := stations[i]
			for _, m := range models {
				if m.Kind() != NSM {
					got, err := m.FetchByAddress(i)
					if err != nil || !got.Equal(want) {
						t.Logf("%s: FetchByAddress(%d): %v", m.Kind(), i, err)
						return false
					}
				}
				root, kids, err := m.Navigate(i)
				if err != nil || root != want.Root() || len(kids) != len(want.Children()) {
					t.Logf("%s: Navigate(%d): %v", m.Kind(), i, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUpdateObjectEquivalence mutates random objects structurally on
// every model and checks the models still agree with an in-memory shadow.
func TestQuickUpdateObjectEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := cobench.DefaultConfig().WithN(20)
		cfg.Seed = seed
		stations, err := cobench.Generate(cfg)
		if err != nil {
			return false
		}
		// Shadow copy to mutate alongside the stores.
		shadow := make([]*cobench.Station, len(stations))
		for i, s := range stations {
			c := *s
			shadow[i] = &c
		}
		models := make([]Model, 0, len(AllKinds()))
		for _, k := range AllKinds() {
			m := mustNew(k, Options{BufferPages: 64})
			defer m.Engine().Close()
			if err := m.Load(stations); err != nil {
				return false
			}
			models = append(models, m)
		}
		mutations := []func(s *cobench.Station) error{
			func(s *cobench.Station) error { s.Seeings = nil; return nil },
			func(s *cobench.Station) error {
				s.Seeings = append(s.Seeings, cobench.Sightseeing{
					Nr: 7, Description: "d", Location: "l", History: "h", Remarks: "r"})
				return nil
			},
			func(s *cobench.Station) error { s.Name = "mutated"; return nil },
			func(s *cobench.Station) error {
				if len(s.Platforms) > 0 {
					s.Platforms = s.Platforms[:len(s.Platforms)-1]
				}
				return nil
			},
		}
		for step := 0; step < 4; step++ {
			i := int((seed >> (step * 8)) % 20)
			mut := mutations[step%len(mutations)]
			sh := shadow[i]
			if err := mut(sh); err != nil {
				return false
			}
			sh.NoPlatform = int32(len(sh.Platforms))
			sh.NoSeeing = int32(len(sh.Seeings))
			for _, m := range models {
				if err := m.UpdateObject(i, mut); err != nil {
					t.Logf("%s: UpdateObject: %v", m.Kind(), err)
					return false
				}
			}
		}
		for _, m := range models {
			if err := m.Flush(); err != nil {
				return false
			}
			if err := m.Engine().ColdCache(); err != nil {
				return false
			}
			err := m.ScanAll(func(i int, s *cobench.Station) error {
				if !s.Equal(shadow[i]) {
					return fmt.Errorf("%s: object %d diverged from shadow", m.Kind(), i)
				}
				return nil
			})
			if err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
