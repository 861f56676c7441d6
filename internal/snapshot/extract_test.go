package snapshot_test

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/snapshot"
	"complexobj/internal/store"
)

// TestExtractSegment pins the shard-split property: a segment extracted
// from a snapshot serves its models with counters bit-identical to the
// full snapshot — the arena and meta bytes are copied verbatim, so a
// shard handoff by segment file is equivalent to serving the original.
func TestExtractSegment(t *testing.T) {
	gen := testGen()
	stations, err := cobench.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	kinds := store.AllKinds()
	models := make([]store.Model, 0, len(kinds))
	for _, k := range kinds {
		models = append(models, loadModel(t, k, stations))
	}
	dir := t.TempDir()
	full := filepath.Join(dir, "full.codb")
	if err := snapshot.Write(full, gen, models...); err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		if err := m.Engine().Close(); err != nil {
			t.Fatal(err)
		}
	}

	sel := []store.Kind{store.DSM, store.NSM, store.DASDBSNSM}
	seg := filepath.Join(dir, "full.s0.codb")
	if err := snapshot.Extract(full, seg, sel); err != nil {
		t.Fatal(err)
	}

	info, err := snapshot.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != gen {
		t.Errorf("segment gen %+v, want %+v", info.Gen, gen)
	}
	if !reflect.DeepEqual(info.Kinds, sel) {
		t.Errorf("segment kinds %v, want %v", info.Kinds, sel)
	}

	for _, k := range sel {
		fullBase, err := snapshot.OpenBase(full, k)
		if err != nil {
			t.Fatal(err)
		}
		segBase, err := snapshot.OpenBase(seg, k)
		if err != nil {
			t.Fatal(err)
		}
		fm, err := fullBase.NewView(store.Options{BufferPages: 180})
		if err != nil {
			t.Fatal(err)
		}
		sm, err := segBase.NewView(store.Options{BufferPages: 180})
		if err != nil {
			t.Fatal(err)
		}
		want, got := runAll(t, fm), runAll(t, sm)
		for i := range want {
			if want[i].Stats != got[i].Stats {
				t.Errorf("%s %s: segment counters differ from full snapshot:\nfull:    %+v\nsegment: %+v",
					k, want[i].Query, want[i].Stats, got[i].Stats)
			}
		}
		fm.Engine().Close()
		sm.Engine().Close()
		fullBase.Release()
		segBase.Release()
	}

	// A model left out of the segment is gone; the full snapshot keeps it.
	if _, err := snapshot.OpenBase(seg, store.NSMIndex); !errors.Is(err, snapshot.ErrNoModel) {
		t.Errorf("extracted segment still holds NSM+index: %v", err)
	}
}

func TestExtractErrors(t *testing.T) {
	gen := testGen()
	stations, err := cobench.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	m := loadModel(t, store.DSM, stations)
	dir := t.TempDir()
	full := filepath.Join(dir, "one.codb")
	if err := snapshot.Write(full, gen, m); err != nil {
		t.Fatal(err)
	}
	m.Engine().Close()

	dst := filepath.Join(dir, "out.codb")
	if err := snapshot.Extract(full, dst, nil); err == nil {
		t.Error("extract of no models accepted")
	}
	if err := snapshot.Extract(full, dst, []store.Kind{store.NSM}); !errors.Is(err, snapshot.ErrNoModel) {
		t.Errorf("extract of a missing model: %v", err)
	}
	if err := snapshot.Extract(full, dst, []store.Kind{store.DSM, store.DSM}); err == nil {
		t.Error("duplicate selection accepted")
	}
	if err := snapshot.Extract(filepath.Join(dir, "missing.codb"), dst, []store.Kind{store.DSM}); err == nil {
		t.Error("missing source accepted")
	}
}
