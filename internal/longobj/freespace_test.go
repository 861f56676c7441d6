package longobj

import (
	"bytes"
	"testing"

	"complexobj/internal/buffer"
	"complexobj/internal/disk"
	"complexobj/internal/wire"
)

func newFreeStore(t *testing.T, poolPages int) (*disk.Disk, *buffer.Pool, *Store) {
	t.Helper()
	d := disk.New()
	p := buffer.New(d, poolPages, buffer.LRU)
	return d, p, New(d, p, "free_test")
}

// TestRelocationReachesStableDeviceSize is the free-space-map regression
// test: a relocate-heavy UpdateObject-style workload (objects repeatedly
// growing and shrinking across page-count boundaries) must stop growing
// the device once the free map holds enough recycled runs, instead of
// leaking every dead run forever.
func TestRelocationReachesStableDeviceSize(t *testing.T) {
	d, _, s := newFreeStore(t, 64)
	const objects = 8
	refs := make([]Ref, objects)
	for i := range refs {
		var err error
		refs[i], err = s.Insert([]Component{comp(0, byte(i), 3000)})
		if err != nil {
			t.Fatal(err)
		}
	}
	sizes := []int{3000, 9000, 5000, 12000, 3000}
	var after []int
	for round, size := range sizes {
		for i := range refs {
			nref, err := s.Replace(refs[i], []Component{comp(0, byte(round), size)})
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = nref
		}
		after = append(after, d.NumPages())
	}
	// Re-run the same size cycle: the device must not grow again — every
	// relocation is served from runs recycled in the first cycle.
	stable := d.NumPages()
	for round, size := range sizes {
		for i := range refs {
			nref, err := s.Replace(refs[i], []Component{comp(0, byte(round), size)})
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = nref
		}
	}
	if got := d.NumPages(); got != stable {
		t.Fatalf("device grew from %d to %d pages on the second size cycle (growth trace %v); free-space map not recycling", stable, got, after)
	}
	// Content sanity after heavy recycling.
	for i, ref := range refs {
		comps, err := readAll(s, ref)
		if err != nil {
			t.Fatal(err)
		}
		if len(comps) != 1 || len(comps[i%1].Data) != sizes[len(sizes)-1] {
			t.Fatalf("object %d corrupted after recycling", i)
		}
	}
}

// TestFreeRunMerging checks adjacent freed runs coalesce, so a large
// object can recycle the space of several smaller dead neighbours.
func TestFreeRunMerging(t *testing.T) {
	d, _, s := newFreeStore(t, 64)
	a, err := s.Insert([]Component{comp(0, 1, 5000)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Insert([]Component{comp(0, 2, 5000)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Small || b.Small || a.Start+disk.PageID(a.Pages()) != b.Start {
		t.Fatalf("setup: objects not adjacent large runs: %+v %+v", a, b)
	}
	s.freeLarge(a)
	s.freeLarge(b)
	if len(s.free) != 1 {
		t.Fatalf("adjacent freed runs not merged: %+v", s.free)
	}
	if s.freedPages != a.Pages()+b.Pages() {
		t.Fatalf("freedPages = %d, want %d", s.freedPages, a.Pages()+b.Pages())
	}
	// An object spanning both dead runs fits without growing the device.
	before := d.NumPages()
	big, err := s.Insert([]Component{comp(0, 3, 11000)})
	if err != nil {
		t.Fatal(err)
	}
	if big.Small {
		t.Fatal("big object unexpectedly small")
	}
	if got := d.NumPages(); got != before {
		t.Fatalf("device grew %d -> %d despite a merged free run of sufficient size", before, got)
	}
	got, err := readAll(s, big)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Data) != 11000 {
		t.Fatal("recycled object content mismatch")
	}
}

// TestRecycledRunEvictsStaleFrames pins the cache-coherence contract: a
// page that was resident (even dirty) when its object died must not
// shadow the recycled page's new content.
func TestRecycledRunEvictsStaleFrames(t *testing.T) {
	_, pool, s := newFreeStore(t, 64)
	ref, err := s.Insert([]Component{comp(0, 1, 5000)})
	if err != nil {
		t.Fatal(err)
	}
	// Make the object's pages resident and dirty via an in-place change.
	if _, err := readAll(s, ref); err != nil {
		t.Fatal(err)
	}
	same := make([]byte, 5000)
	for i := range same {
		same[i] = 0xAB
	}
	if err := s.ReplaceAll(ref, []Component{comp2(0, same)}); err != nil {
		t.Fatal(err)
	}
	// Relocate (shrink): the old run goes to the free map while its dirty
	// frames are still pooled.
	nref, err := s.Replace(ref, []Component{comp(0, 9, 12000)})
	if err != nil {
		t.Fatal(err)
	}
	if nref == ref {
		t.Fatal("object did not relocate")
	}
	// Recycle the dead run and read the new object back through the pool.
	reref, err := s.Insert([]Component{comp(0, 7, 5000)})
	if err != nil {
		t.Fatal(err)
	}
	if reref.Start != ref.Start {
		t.Fatalf("expected recycling of run %d, got %d", ref.Start, reref.Start)
	}
	got, err := readAll(s, reref)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Tag != 0 || len(got[0].Data) != 5000 || got[0].Data[0] == 0xAB {
		t.Fatal("stale pooled frame leaked into recycled page")
	}
	_ = pool
}

// comp2 builds a component from explicit bytes.
func comp2(tag uint8, data []byte) Component { return Component{Tag: tag, Data: data} }

// TestAttachSharesUntilWritten pins the shared-directory contract of a
// store: attached to a decoded state — free-space map included — it
// reports Changed exactly when its own AppendState stops matching, and
// neither it nor a sibling attached alongside ever writes the directory.
func TestAttachSharesUntilWritten(t *testing.T) {
	d, p, loaded := newFreeStore(t, 64)
	var refs []Ref
	for i := 0; i < 6; i++ {
		ref, err := loaded.Insert([]Component{comp(0, byte(i), 5000)})
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	small, err := loaded.Insert([]Component{comp(0, 9, 200)})
	if err != nil {
		t.Fatal(err)
	}
	// Two dead runs of different sizes, so the map has entries a claim
	// would shrink in place.
	loaded.freeLarge(refs[1])
	loaded.freeLarge(refs[4])
	blob := loaded.AppendState(nil)
	dir := New(nil, nil, "directory") // decoded once, no device
	if err := dir.RestoreState(wire.NewReader(blob)); err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		name    string
		changes bool
		do      func(s *Store) error
	}{
		{"in-place replace of a large object", false, func(s *Store) error {
			return s.ReplaceAll(refs[0], []Component{comp(0, 0xAA, 5000)})
		}},
		{"same-length replace of a small object", false, func(s *Store) error {
			return s.ReplaceAll(small, []Component{comp(0, 0xAB, 200)})
		}},
		{"resizing replace of a small object", true, func(s *Store) error {
			return s.ReplaceAll(small, []Component{comp(0, 0xAB, 120)})
		}},
		{"insert claiming part of a free run", true, func(s *Store) error {
			_, err := s.Insert([]Component{comp(0, 7, 2500)})
			return err
		}},
		{"relocating replace", true, func(s *Store) error {
			_, err := s.Replace(refs[2], []Component{comp(0, 8, 12000)})
			return err
		}},
		{"insert extending the device", true, func(s *Store) error {
			_, err := s.Insert([]Component{comp(0, 7, 30000)})
			return err
		}},
	}
	a, b := New(d, p, "a"), New(d, p, "b")
	for _, st := range steps {
		a.Attach(dir)
		b.Attach(dir)
		if a.Changed() || !bytes.Equal(a.AppendState(nil), blob) {
			t.Fatalf("%s: a freshly attached store differs from its directory", st.name)
		}
		if err := st.do(a); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if a.Changed() != st.changes {
			t.Errorf("%s: Changed = %v, want %v", st.name, a.Changed(), st.changes)
		}
		if same := bytes.Equal(a.AppendState(nil), blob); same == a.Changed() {
			t.Errorf("%s: Changed = %v but state equals the directory's: %v", st.name, a.Changed(), same)
		}
		if b.Changed() || !bytes.Equal(b.AppendState(nil), blob) || !bytes.Equal(dir.AppendState(nil), blob) {
			t.Fatalf("%s on one store reached its sibling or the directory", st.name)
		}
	}
}
