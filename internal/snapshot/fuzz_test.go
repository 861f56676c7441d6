package snapshot_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/snapshot"
	"complexobj/internal/store"
)

// FuzzSnapshotParse feeds arbitrary bytes to the one reader every
// persisted arena enters through (snapshots, checkpoints, shard segments
// arriving from other nodes). The invariants: Stat, OpenBase and opening
// a view of the base never panic; a rejected file is rejected with
// ErrFormat by Stat and OpenBase alike; an accepted one yields exactly
// the models Stat lists, and OpenBases opens them all, one base per
// entry; no base is ever larger than the input — lengths
// in the header are believed only as far as the file has bytes to back
// them — and a base whose metadata blob is garbage fails to open a view
// with store.ErrRestore instead of serving it.
func FuzzSnapshotParse(f *testing.F) {
	// Real files — one model and all five — written here so these seeds
	// always match the writer; the committed corpus under testdata holds
	// the hand-built ones (synthetic valid files, a version-1 header, a
	// truncated entry table, overflowing geometry, metaLen past EOF, and
	// version-2 and version-3 entry tables, valid and breaking each rule).
	gen := cobench.DefaultConfig().WithN(1)
	stations, err := cobench.Generate(gen)
	if err != nil {
		f.Fatal(err)
	}
	var models []store.Model
	for _, k := range store.AllKinds() {
		m, err := store.New(k, store.Options{BufferPages: 32})
		if err != nil {
			f.Fatal(err)
		}
		defer m.Engine().Close()
		if err := m.Load(stations); err != nil {
			f.Fatal(err)
		}
		models = append(models, m)
	}
	for _, set := range [][]store.Model{models[:1], models} {
		path := filepath.Join(f.TempDir(), "seed.codb")
		if err := snapshot.Write(path, gen, set...); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.codb")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		info, statErr := snapshot.Stat(path)
		if statErr != nil && !errors.Is(statErr, snapshot.ErrFormat) {
			t.Fatalf("Stat: %v, want ErrFormat", statErr)
		}
		for _, k := range store.AllKinds() {
			base, err := snapshot.OpenBase(path, k)
			switch {
			case statErr != nil:
				if !errors.Is(err, snapshot.ErrFormat) {
					t.Fatalf("OpenBase(%s) of a file Stat rejects: %v", k, err)
				}
			case err == nil:
				if !slices.Contains(info.Kinds, k) {
					t.Fatalf("OpenBase(%s) opened a model Stat does not list (%v)", k, info.Kinds)
				}
				if base.ArenaBytes() > len(raw) {
					t.Fatalf("%s base of %d bytes from a %d-byte file", k, base.ArenaBytes(), len(raw))
				}
				m, err := base.NewView(store.Options{BufferPages: 8})
				if err == nil {
					m.Engine().Close()
				} else if !errors.Is(err, store.ErrRestore) {
					t.Fatalf("Open(%s): %v, want ErrRestore", k, err)
				}
				base.Release()
			case slices.Contains(info.Kinds, k) || !errors.Is(err, snapshot.ErrNoModel):
				t.Fatalf("OpenBase(%s) with Stat kinds %v: %v", k, info.Kinds, err)
			}
		}
		if statErr != nil || len(info.Kinds) == 0 {
			return
		}
		// Every kind Stat lists opens in one batch, each entry once: a
		// kind's base stands on a floor with one base per kind of its entry.
		bases, err := snapshot.OpenBases(path, info.Kinds)
		if err != nil {
			t.Fatalf("OpenBases(%v): %v", info.Kinds, err)
		}
		entries, err := snapshot.EntryKinds(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bases {
			n := 0
			for _, ks := range entries {
				if slices.Contains(ks, b.Kind()) {
					n = len(ks)
				}
			}
			if b.Owners() != n || b.ArenaBytes() > len(raw) {
				t.Fatalf("%s base: %d owners for %d kinds, %d bytes from a %d-byte file", b.Kind(), b.Owners(), n, b.ArenaBytes(), len(raw))
			}
		}
		for _, b := range bases {
			if err := b.Release(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
