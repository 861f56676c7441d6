package snapshot_test

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/snapshot"
	"complexobj/internal/store"
	"complexobj/internal/workload"
)

func testGen() cobench.Config { return cobench.DefaultConfig().WithN(70) }

func loadModel(t *testing.T, k store.Kind, stations []*cobench.Station) store.Model {
	t.Helper()
	m, err := store.New(k, store.Options{BufferPages: 180})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(stations); err != nil {
		t.Fatal(err)
	}
	if err := m.Engine().ColdCache(); err != nil {
		t.Fatal(err)
	}
	m.Engine().ResetStats()
	return m
}

func runAll(t *testing.T, m store.Model) []workload.Result {
	t.Helper()
	r := workload.NewRunner(m, cobench.Workload{Loops: 15, Samples: 5, Seed: 11})
	var out []workload.Result
	for _, q := range cobench.AllQueries() {
		res, err := r.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out = append(out, res)
	}
	return out
}

// TestSnapshotRoundTrip pins the acceptance property of the snapshot
// format: write → close → OpenBase + Open restores every storage model
// such that the full query matrix produces counters bit-identical to the
// freshly loaded private engine — over the mapped base and over its heap
// reference alike.
func TestSnapshotRoundTrip(t *testing.T) {
	gen := testGen()
	stations, err := cobench.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	kinds := store.AllKinds()

	// Reference counters from freshly loaded models.
	want := make(map[store.Kind][]workload.Result, len(kinds))
	models := make([]store.Model, 0, len(kinds))
	for _, k := range kinds {
		m := loadModel(t, k, stations)
		want[k] = runAll(t, m)
		models = append(models, m)
	}

	// Snapshot the (already queried) models: measurement must not have
	// perturbed the on-device state in a way queries can observe.
	path := filepath.Join(t.TempDir(), "round.codb")
	if err := snapshot.Write(path, gen, models...); err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		if err := m.Engine().Close(); err != nil {
			t.Fatal(err)
		}
	}

	info, err := snapshot.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != gen {
		t.Fatalf("Stat gen = %+v, want %+v", info.Gen, gen)
	}
	if len(info.Kinds) != len(kinds) {
		t.Fatalf("Stat kinds = %v", info.Kinds)
	}

	for _, k := range kinds {
		for name, open := range map[string]func(string, store.Kind) (*store.SharedBase, error){
			"mapped": snapshot.OpenBase,
			"heap":   snapshot.OpenBaseHeap,
		} {
			base, err := open(path, k)
			if err != nil {
				t.Fatalf("open %s base (%s): %v", k, name, err)
			}
			m, err := base.NewView(store.Options{BufferPages: 180})
			if err != nil {
				t.Fatalf("open %s view (%s): %v", k, name, err)
			}
			got := runAll(t, m)
			for i := range got {
				if got[i].Stats != want[k][i].Stats {
					t.Errorf("%s %s over the %s base: restored counters differ:\nfresh:    %+v\nrestored: %+v",
						k, got[i].Query, name, want[k][i].Stats, got[i].Stats)
				}
			}
			if err := m.Engine().Close(); err != nil {
				t.Fatal(err)
			}
			if err := base.Release(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSnapshotOpenMissingModel asserts the typed error for absent kinds.
func TestSnapshotOpenMissingModel(t *testing.T) {
	gen := testGen()
	stations, err := cobench.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	m := loadModel(t, store.DSM, stations)
	defer m.Engine().Close()
	path := filepath.Join(t.TempDir(), "one.codb")
	if err := snapshot.Write(path, gen, m); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.OpenBase(path, store.DASDBSNSM); !errors.Is(err, snapshot.ErrNoModel) {
		t.Fatalf("want ErrNoModel, got %v", err)
	}
}

// TestSnapshotRejectsGarbage asserts corrupt files fail cleanly.
func TestSnapshotRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage.codb")
	if err := writeFile(path, []byte("NOTASNAPSHOT")); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Stat(path); !errors.Is(err, snapshot.ErrFormat) {
		t.Fatalf("want ErrFormat, got %v", err)
	}
}

// TestSnapshotPageSizeConflict asserts that a file whose entry has a page
// size other than disk.DefaultPageSize is refused instead of silently
// reinterpreted: Stat, OpenBases and OpenSidecarBase fail with
// ErrPageSize, naming the file and both sizes. No writer of this program
// produces such a file, so it is built by hand, a well-formed version-3
// container whose one DSM entry says 4096.
func TestSnapshotPageSizeConflict(t *testing.T) {
	const foreign = 2 * disk.DefaultPageSize
	dir := t.TempDir()
	path := filepath.Join(dir, "dsm.codb") // also DSM's checkpoint name in dir
	raw := rawEntry{kind: 1 << store.DSM, pageSize: foreign, numPages: 2, meta: []byte("meta"), arena: make([]byte, 2*foreign)}
	if err := writeFile(path, encode(t, snapshot.Version, testGen(), raw)); err != nil {
		t.Fatal(err)
	}
	check := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, snapshot.ErrPageSize) {
			t.Fatalf("%s of a %d-byte-page file: %v, want ErrPageSize", op, foreign, err)
		}
		for _, want := range []string{path, strconv.Itoa(foreign), strconv.Itoa(disk.DefaultPageSize)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: %q does not name %s", op, err, want)
			}
		}
	}
	_, err := snapshot.Stat(path)
	check("Stat", err)
	_, err = snapshot.OpenBases(path, []store.Kind{store.DSM})
	check("OpenBases", err)
	_, _, err = snapshot.OpenSidecarBase(dir, store.DSM)
	check("OpenSidecarBase", err)
}

func writeFile(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }

// TestSnapshotOpenBaseEquivalence pins view independence over one opened
// base: a COW view runs the full query matrix with counters bit-identical
// to the fresh load even when several views of the same base run back to
// back, and even after an earlier view has run the update queries
// (overlays are private, the base is immutable).
func TestSnapshotOpenBaseEquivalence(t *testing.T) {
	gen := testGen()
	stations, err := cobench.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	m := loadModel(t, store.DASDBSNSM, stations)
	want := runAll(t, m)
	path := filepath.Join(t.TempDir(), "base.codb")
	if err := snapshot.Write(path, gen, m); err != nil {
		t.Fatal(err)
	}
	m.Engine().Close()

	base, err := snapshot.OpenBase(path, store.DASDBSNSM)
	if err != nil {
		t.Fatal(err)
	}
	if base.NumPages() == 0 || base.ArenaBytes() != base.NumPages()*base.PageSize() {
		t.Fatalf("base geometry: %d pages, %d bytes", base.NumPages(), base.ArenaBytes())
	}
	for view := 0; view < 3; view++ {
		v, err := base.NewView(store.Options{BufferPages: 180})
		if err != nil {
			t.Fatal(err)
		}
		got := runAll(t, v) // includes the update queries: dirties the overlay
		for i := range got {
			if got[i].Stats != want[i].Stats {
				t.Errorf("view %d, %s: counters differ from fresh load:\nfresh: %+v\nview:  %+v",
					view, got[i].Query, want[i].Stats, got[i].Stats)
			}
		}
		if err := v.Engine().Close(); err != nil {
			t.Fatal(err)
		}
	}
}
