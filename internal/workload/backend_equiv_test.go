package workload

import (
	"testing"

	"complexobj/cobench"
	"complexobj/internal/store"
)

// TestBackendCounterEquivalence is the tentpole invariant test at the raw
// counter level: the full paper query matrix, run on every storage model,
// produces bit-identical iostat counters (page I/Os, I/O calls, buffer
// fixes and hits) whether the device arena lives in a private loader arena
// — the loader, and the reference every other path is held to — or in a
// copy-on-write view: of a frozen shared base, and of the base loaded in
// place for the model's physical layout (for DASDBS-DSM that is a DSM
// base: one layout, two access strategies). The backend moves bytes,
// never measurements.
func TestBackendCounterEquivalence(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(80))
	if err != nil {
		t.Fatal(err)
	}
	w := cobench.Workload{Loops: 20, Samples: 6, Seed: 7}
	for _, k := range store.AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			measure := func(m store.Model) []Result {
				defer m.Engine().Close()
				return runAll(t, NewRunner(m, w))
			}
			load := func() store.Model {
				m, err := store.New(k, store.Options{BufferPages: 200})
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Load(stations); err != nil {
					t.Fatal(err)
				}
				return m
			}

			mem := measure(load())
			got := map[string][]Result{}
			// Shared-base view: freeze one loaded model, measure a COW view.
			loader := load()
			base, err := store.Freeze(loader)
			if err != nil {
				t.Fatal(err)
			}
			loader.Engine().Close()
			view, err := base.NewView(store.Options{BufferPages: 200})
			if err != nil {
				t.Fatal(err)
			}
			got["cow-shared-base"] = measure(view)
			// The layout's base, loaded in place, read with k's strategy.
			layoutBase, err := store.LoadBase(k.Layout(), store.Options{}, stations)
			if err != nil {
				t.Fatal(err)
			}
			defer layoutBase.Release()
			if view, err = layoutBase.NewViewAs(k, store.Options{BufferPages: 200}); err != nil {
				t.Fatal(err)
			}
			if view.Kind() != k {
				t.Fatalf("view over the %s base runs %s, want %s", layoutBase.Kind(), view.Kind(), k)
			}
			got["cow-layout-base"] = measure(view)

			for name, other := range got {
				if len(mem) != len(other) {
					t.Fatalf("%s: result counts differ: %d vs %d", name, len(mem), len(other))
				}
				for i := range mem {
					if mem[i].Stats != other[i].Stats {
						t.Errorf("%s %s: counters differ across backends:\nmem: %+v\n%s: %+v",
							k, mem[i].Query, mem[i].Stats, name, other[i].Stats)
					}
					if mem[i].Supported != other[i].Supported || mem[i].Units != other[i].Units {
						t.Errorf("%s %s: normalization differs on %s", k, mem[i].Query, name)
					}
				}
			}
		})
	}
}
