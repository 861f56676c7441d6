package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/snapshot"
	"complexobj/internal/store"
	"complexobj/internal/workload"
)

// rawEntry is one entry of a hand-encoded container.
type rawEntry struct {
	kind               byte // version 2: the kind; version 3: the kind set
	pageSize, numPages int
	seq, gen           uint64
	meta, arena        []byte
}

// encode builds a container byte for byte, independently of the writer:
// how the tests produce files of the previous version and tables the
// writer refuses to produce.
func encode(t *testing.T, version uint16, gen cobench.Config, entries ...rawEntry) []byte {
	t.Helper()
	genJSON, err := json.Marshal(gen)
	if err != nil {
		t.Fatal(err)
	}
	b := binary.BigEndian.AppendUint16([]byte("CODB"), version)
	b = binary.BigEndian.AppendUint32(b, uint32(len(genJSON)))
	b = append(b, genJSON...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(entries)))
	for _, e := range entries {
		b = append(b, e.kind)
		b = binary.BigEndian.AppendUint32(b, uint32(e.pageSize))
		b = binary.BigEndian.AppendUint32(b, uint32(e.numPages))
		b = binary.BigEndian.AppendUint64(b, e.seq)
		b = binary.BigEndian.AppendUint64(b, e.gen)
		b = binary.BigEndian.AppendUint32(b, uint32(len(e.meta)))
		b = append(b, e.meta...)
		b = append(b, e.arena...)
	}
	return b
}

// rawOf returns a loaded model's entry under the given kind byte.
func rawOf(t *testing.T, m store.Model, kind byte) rawEntry {
	t.Helper()
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	meta, err := m.SnapshotMeta()
	if err != nil {
		t.Fatal(err)
	}
	var arena bytes.Buffer
	dev := m.Engine().Dev
	if err := dev.DumpTo(&arena); err != nil {
		t.Fatal(err)
	}
	return rawEntry{kind: kind, pageSize: dev.PageSize(), numPages: dev.NumPages(), meta: meta, arena: arena.Bytes()}
}

// freshResults measures the full query matrix on a freshly loaded model
// of every kind: the reference a base opened from a file must match.
func freshResults(t *testing.T, stations []*cobench.Station) map[store.Kind][]workload.Result {
	t.Helper()
	out := make(map[store.Kind][]workload.Result)
	for _, k := range store.AllKinds() {
		m := loadModel(t, k, stations)
		out[k] = runAll(t, m)
		m.Engine().Close()
	}
	return out
}

// checkBase opens a view of kind k over base and compares its full query
// matrix with want.
func checkBase(t *testing.T, label string, base *store.SharedBase, k store.Kind, want []workload.Result) {
	t.Helper()
	m, err := base.NewViewAs(k, store.Options{BufferPages: 180})
	if err != nil {
		t.Fatalf("%s: open %s view: %v", label, k, err)
	}
	defer m.Engine().Close()
	if m.Kind() != k {
		t.Fatalf("%s: view runs %s, want %s", label, m.Kind(), k)
	}
	got := runAll(t, m)
	for i := range got {
		if got[i].Stats != want[i].Stats {
			t.Errorf("%s: %s %s counters differ:\nwant: %+v\ngot:  %+v", label, k, got[i].Query, want[i].Stats, got[i].Stats)
		}
	}
}

// TestWriteStoresLayoutOnce pins the fold: five freshly loaded models are
// three entries — DSM with DASDBS-DSM, NSM with NSM+index, DASDBS-NSM —
// Stat still lists all five in AllKinds order, OpenBases maps each entry
// once (each kind of an entry gets a base of its own on the entry's one
// floor), and every kind measures as its fresh load does.
func TestWriteStoresLayoutOnce(t *testing.T) {
	gen := testGen()
	stations, err := cobench.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	want := freshResults(t, stations)
	kinds := store.AllKinds()
	var models []store.Model
	for _, k := range kinds {
		m := loadModel(t, k, stations)
		defer m.Engine().Close()
		models = append(models, m)
	}
	path := filepath.Join(t.TempDir(), "folded.codb")
	if err := snapshot.Write(path, gen, models...); err != nil {
		t.Fatal(err)
	}
	entries, err := snapshot.EntryKinds(path)
	if err != nil {
		t.Fatal(err)
	}
	wantEntries := [][]store.Kind{{store.DSM, store.DASDBSDSM}, {store.NSM, store.NSMIndex}, {store.DASDBSNSM}}
	if !reflect.DeepEqual(entries, wantEntries) {
		t.Fatalf("entries %v, want %v", entries, wantEntries)
	}
	info, err := snapshot.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info.Kinds, kinds) {
		t.Errorf("Stat kinds %v, want %v", info.Kinds, kinds)
	}

	bases, err := snapshot.OpenBases(path, kinds)
	if err != nil {
		t.Fatal(err)
	}
	floors := 0.0
	for i, k := range kinds {
		floors += 1 / float64(bases[i].Owners())
		wantOwners := 2
		if k == store.DASDBSNSM {
			wantOwners = 1
		}
		if got := bases[i].Owners(); got != wantOwners {
			t.Errorf("%s base has %d owners, want %d", k, got, wantOwners)
		}
		checkBase(t, "folded", bases[i], k, want[k])
	}
	if floors != 3 {
		t.Errorf("five kinds stand on %g floors, want 3", floors)
	}
	for i, b := range bases {
		if err := b.Release(); err != nil {
			t.Fatalf("release %s: %v", kinds[i], err)
		}
	}
	if _, err := snapshot.OpenBases(path, []store.Kind{store.DSM, store.DSM}); err == nil {
		t.Error("OpenBases accepted a kind named twice")
	}
}

// TestWriteKeepsDivergedModel pins that the fold compares arenas, not only
// directories: a DSM updated after its load has DASDBS-DSM's metadata but
// not its pages, so the two keep an entry each and each reads its own
// objects.
func TestWriteKeepsDivergedModel(t *testing.T) {
	gen := testGen()
	stations, err := cobench.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	updated := loadModel(t, store.DSM, stations)
	defer updated.Engine().Close()
	if err := updated.UpdateRoots([]int32{3}, func(_ int32, r *cobench.RootRecord) { r.Name = "updated after load" }); err != nil {
		t.Fatal(err)
	}
	if err := updated.Flush(); err != nil {
		t.Fatal(err)
	}
	fresh := loadModel(t, store.DASDBSDSM, stations)
	defer fresh.Engine().Close()
	metaU, err := updated.SnapshotMeta()
	if err != nil {
		t.Fatal(err)
	}
	metaF, err := fresh.SnapshotMeta()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(metaU, metaF) {
		t.Fatal("the update moved the directory; this test needs one that changes pages only")
	}

	path := filepath.Join(t.TempDir(), "diverged.codb")
	if err := snapshot.Write(path, gen, updated, fresh); err != nil {
		t.Fatal(err)
	}
	entries, err := snapshot.EntryKinds(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]store.Kind{{store.DSM}, {store.DASDBSDSM}}; !reflect.DeepEqual(entries, want) {
		t.Fatalf("entries %v, want %v (a model whose pages differ must keep its own entry)", entries, want)
	}
	bases, err := snapshot.OpenBases(path, []store.Kind{store.DSM, store.DASDBSDSM})
	if err != nil {
		t.Fatal(err)
	}
	for i, wantName := range []string{"updated after load", stations[3].Name} {
		if bases[i].Owners() != 1 {
			t.Errorf("%s base has %d owners, want 1", bases[i].Kind(), bases[i].Owners())
		}
		m, err := bases[i].NewView(store.Options{BufferPages: 32})
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.FetchByAddress(3)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != wantName {
			t.Errorf("%s object 3 is named %q, want %q", m.Kind(), got.Name, wantName)
		}
		m.Engine().Close()
		bases[i].Release()
	}
}

// TestVersion2StillOpens pins the previous container version: a file
// written with one kind per entry, encoded here with the old header,
// opens, Stats, Extracts (into a version-3 file) and recovers as a
// checkpoint, and every model measures as its fresh load does.
func TestVersion2StillOpens(t *testing.T) {
	gen := testGen()
	stations, err := cobench.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	want := freshResults(t, stations)
	var raws []rawEntry
	kinds := []store.Kind{store.DSM, store.DASDBSDSM, store.DASDBSNSM}
	for _, k := range kinds {
		m := loadModel(t, k, stations)
		raws = append(raws, rawOf(t, m, byte(k)))
		m.Engine().Close()
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "v2.codb")
	if err := os.WriteFile(path, encode(t, 2, gen, raws...), 0o644); err != nil {
		t.Fatal(err)
	}

	info, err := snapshot.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info.Kinds, kinds) || info.Gen != gen {
		t.Fatalf("Stat %+v, want kinds %v, gen %+v", info, kinds, gen)
	}
	bases, err := snapshot.OpenBases(path, kinds)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range kinds {
		if bases[i].Owners() != 1 {
			t.Errorf("%s: a version-2 entry holds one kind, yet its base has %d owners", k, bases[i].Owners())
		}
		checkBase(t, "v2", bases[i], k, want[k])
		bases[i].Release()
	}

	seg := filepath.Join(dir, "v2.s0.codb")
	if err := snapshot.Extract(path, seg, []store.Kind{store.DASDBSNSM, store.DASDBSDSM}); err != nil {
		t.Fatal(err)
	}
	entries, err := snapshot.EntryKinds(seg)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]store.Kind{{store.DASDBSDSM}, {store.DASDBSNSM}}; !reflect.DeepEqual(entries, want) {
		t.Errorf("extracted entries %v, want %v", entries, want)
	}

	// A checkpoint of the previous version: one DSM entry at watermark 7.
	ckpt := raws[0]
	ckpt.seq, ckpt.gen = 7, 3
	ckptDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(ckptDir, "dsm.codb"), encode(t, 2, cobench.Config{}, ckpt), 0o644); err != nil {
		t.Fatal(err)
	}
	si, err := snapshot.StatSidecar(ckptDir, store.DSM)
	if err != nil {
		t.Fatal(err)
	}
	if si.Kind != store.DSM || si.Seq != 7 || si.Gen != 3 || si.NumPages != ckpt.numPages {
		t.Errorf("version-2 checkpoint described as %+v", si)
	}
	base, si2, err := snapshot.OpenSidecarBase(ckptDir, store.DSM)
	if err != nil {
		t.Fatal(err)
	}
	if si2 != si {
		t.Errorf("OpenSidecarBase info %+v, StatSidecar %+v", si2, si)
	}
	checkBase(t, "v2 checkpoint", base, store.DSM, want[store.DSM])
	base.Release()
}

// TestExtractNarrowsFoldedEntry pins Extract over a folded entry: asking
// for DASDBS-DSM alone yields a one-kind entry, and its base measures
// bit-identically to the folded one.
func TestExtractNarrowsFoldedEntry(t *testing.T) {
	gen := testGen()
	stations, err := cobench.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	var models []store.Model
	for _, k := range store.AllKinds() {
		m := loadModel(t, k, stations)
		defer m.Engine().Close()
		models = append(models, m)
	}
	dir := t.TempDir()
	full := filepath.Join(dir, "full.codb")
	if err := snapshot.Write(full, gen, models...); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "ddsm.codb")
	if err := snapshot.Extract(full, seg, []store.Kind{store.DASDBSDSM}); err != nil {
		t.Fatal(err)
	}
	entries, err := snapshot.EntryKinds(seg)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]store.Kind{{store.DASDBSDSM}}; !reflect.DeepEqual(entries, want) {
		t.Fatalf("extracted entries %v, want %v", entries, want)
	}
	fullBase, err := snapshot.OpenBase(full, store.DASDBSDSM)
	if err != nil {
		t.Fatal(err)
	}
	defer fullBase.Release()
	fm, err := fullBase.NewView(store.Options{BufferPages: 180})
	if err != nil {
		t.Fatal(err)
	}
	want := runAll(t, fm)
	fm.Engine().Close()
	segBase, err := snapshot.OpenBase(seg, store.DASDBSDSM)
	if err != nil {
		t.Fatal(err)
	}
	defer segBase.Release()
	checkBase(t, "extracted", segBase, store.DASDBSDSM, want)
	if _, err := snapshot.OpenBase(seg, store.DSM); !errors.Is(err, snapshot.ErrNoModel) {
		t.Errorf("extracted segment still holds DSM: %v", err)
	}
}

// TestEntryTableRules pins what a reader refuses to believe of an entry
// table — each with ErrFormat and the rule's own error — and that Write
// refuses to produce the same tables.
func TestEntryTableRules(t *testing.T) {
	gen := cobench.DefaultConfig().WithN(3)
	const ps, foreign = disk.DefaultPageSize, 2 * disk.DefaultPageSize
	arena := make([]byte, foreign)
	e := func(kind byte, pageSize int) rawEntry {
		return rawEntry{kind: kind, pageSize: pageSize, numPages: 1, meta: []byte("meta"), arena: arena[:pageSize]}
	}
	for _, tc := range []struct {
		name    string
		version uint16
		entries []rawEntry
		want    error
	}{
		{"v3 empty kind set", 3, []rawEntry{e(0x00, ps)}, snapshot.ErrKindSet},
		{"v3 unknown kind", 3, []rawEntry{e(0x21, ps)}, snapshot.ErrKindSet},
		{"v3 kind in two entries", 3, []rawEntry{e(0x03, ps), e(0x02, ps)}, snapshot.ErrDuplicateKind},
		{"v3 kinds of two layouts", 3, []rawEntry{e(0x05, ps)}, snapshot.ErrMixedLayout},
		{"v3 foreign page size", 3, []rawEntry{e(0x01, ps), e(0x04, foreign)}, snapshot.ErrPageSize},
		{"v2 kind twice", 2, []rawEntry{e(0, ps), e(0, ps)}, snapshot.ErrDuplicateKind},
		{"v2 unknown kind", 2, []rawEntry{e(7, ps)}, snapshot.ErrKindSet},
		{"v2 foreign page size", 2, []rawEntry{e(0, foreign)}, snapshot.ErrPageSize},
		{"v1", 1, []rawEntry{e(0, ps)}, snapshot.ErrFormat},
		{"v4", 4, []rawEntry{e(0x01, ps)}, snapshot.ErrFormat},
	} {
		path := filepath.Join(t.TempDir(), "table.codb")
		if err := os.WriteFile(path, encode(t, tc.version, gen, tc.entries...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := snapshot.Stat(path); !errors.Is(err, snapshot.ErrFormat) || !errors.Is(err, tc.want) {
			t.Errorf("%s: Stat %v, want ErrFormat and %v", tc.name, err, tc.want)
		}
		if _, err := snapshot.OpenBase(path, store.DSM); !errors.Is(err, snapshot.ErrFormat) {
			t.Errorf("%s: OpenBase %v, want ErrFormat", tc.name, err)
		}
	}
	// The valid neighbours of those tables open.
	path := filepath.Join(t.TempDir(), "ok.codb")
	if err := os.WriteFile(path, encode(t, 3, gen, e(0x03, ps), e(0x0c, ps), e(0x10, ps)), 0o644); err != nil {
		t.Fatal(err)
	}
	if info, err := snapshot.Stat(path); err != nil || !reflect.DeepEqual(info.Kinds, store.AllKinds()) {
		t.Errorf("valid three-entry table: %+v, %v", info, err)
	}

	stations, err := cobench.Generate(testGen())
	if err != nil {
		t.Fatal(err)
	}
	dsm := loadModel(t, store.DSM, stations)
	defer dsm.Engine().Close()
	again := loadModel(t, store.DSM, stations)
	defer again.Engine().Close()
	out := filepath.Join(t.TempDir(), "refused.codb")
	if err := snapshot.Write(out, testGen(), dsm, again); !errors.Is(err, snapshot.ErrDuplicateKind) {
		t.Errorf("Write of DSM twice: %v, want ErrDuplicateKind", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused Write left a file: %v", err)
	}
}
