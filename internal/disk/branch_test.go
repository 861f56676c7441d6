package disk

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// branchLine is one branch under test: its current generation (the owner
// reference), the views parked on older generations, and a flat oracle of
// what the current generation must read.
type branchLine struct {
	gen    *BaseArena
	parked []parkedView
	flat   []byte
}

// parkedView is a COW view left on a generation, with the bytes it must
// keep reading.
type parkedView struct {
	view Backend
	want []byte
}

// images collects the committed images every generation the branch still
// holds can read: the current one and each parked view's.
func (b *branchLine) images() map[*byte]bool {
	out := make(map[*byte]bool)
	add := func(a *BaseArena) {
		a.over.each(func(_ int, slot *[]byte) { out[&(*slot)[0]] = true })
	}
	add(b.gen)
	for _, p := range b.parked {
		add(p.view.(*cowBackend).base)
	}
	return out
}

// TestBranchesRecycleAlone interleaves the promotes and drains of two
// branches of one mapped floor: each reads its own flat oracle and its
// parked views their own bytes, each branch's lineage reuses images, no
// image one branch can read is ever handed to the other, and the floor is
// unmapped at the last release of both branches only.
func TestBranchesRecycleAlone(t *testing.T) {
	const ps, numPages, dirty = DefaultPageSize, 8 * leafPages, 12
	floorBytes, _ := testBase(numPages)
	pristine := floorBytes.Bytes()
	path := filepath.Join(t.TempDir(), "floor")
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	root, err := MapBaseArena(f, 0, len(pristine))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	second, err := root.Branch()
	if err != nil {
		t.Fatal(err)
	}
	if root.Branches() != 2 || root.Refs() != 2 {
		t.Fatalf("two branches: %d branches, %d refs", root.Branches(), root.Refs())
	}
	lines := []*branchLine{
		{gen: root, flat: bytes.Clone(pristine)},
		{gen: second, flat: bytes.Clone(pristine)},
	}
	rng := rand.New(rand.NewSource(36))
	for step := 0; step < 400; step++ {
		me, other := lines[step%2], lines[1-step%2]
		switch r := rng.Intn(10); {
		case r == 0 && len(me.parked) < 3:
			me.parked = append(me.parked, parkedView{NewCOWBackend(me.gen), bytes.Clone(me.flat)})
		case r == 1 && len(me.parked) > 0:
			i := rng.Intn(len(me.parked))
			if err := me.parked[i].view.Close(); err != nil {
				t.Fatal(err)
			}
			me.parked = append(me.parked[:i], me.parked[i+1:]...)
		default:
			pages := randomPages(rng, numPages, 1+rng.Intn(dirty))
			for pg, img := range pages {
				copy(me.flat[pg*ps:], img)
			}
			me.gen = commitThroughView(t, me.gen, pages)
		}
		if !bytes.Equal(me.gen.Bytes(), me.flat) || !bytes.Equal(other.gen.Bytes(), other.flat) {
			t.Fatalf("step %d: a branch no longer reads its own commits", step)
		}
		mine := me.images()
		for img := range other.images() {
			if mine[img] {
				t.Fatalf("step %d: an image one branch reads was handed to the other", step)
			}
		}
	}
	for i, l := range lines {
		if _, _, reused := l.gen.RecycleState(); reused == 0 {
			t.Errorf("branch %d reused no image", i)
		}
		for _, p := range l.parked {
			got := make([]byte, len(p.want))
			if err := p.view.ReadAt(got, 0); err != nil || !bytes.Equal(got, p.want) {
				t.Fatalf("branch %d: a parked view no longer reads its generation (%v)", i, err)
			}
		}
	}
	if _, err := lines[0].gen.Branch(); !errors.Is(err, ErrBranch) {
		t.Errorf("Branch of a promoted generation: %v, want ErrBranch", err)
	}

	release := func(l *branchLine) {
		for _, p := range l.parked {
			if err := p.view.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.gen.Release(); err != nil {
			t.Fatal(err)
		}
	}
	release(lines[0])
	if root.Branches() != 1 || root.fl.data == nil || (CanMapBase && root.fl.unmap == nil) {
		t.Fatalf("the first branch's release: %d branches, floor released %t", root.Branches(), root.fl.data == nil)
	}
	if !bytes.Equal(lines[1].gen.Bytes(), lines[1].flat) {
		t.Fatal("the second branch changed at the first one's release")
	}
	release(lines[1])
	if root.Branches() != 0 || root.Refs() != 0 || root.fl.data != nil || root.fl.unmap != nil {
		t.Fatalf("after both releases: %d branches, %d refs, floor still mapped", root.Branches(), root.Refs())
	}
	if _, err := root.Branch(); !errors.Is(err, ErrBranch) {
		t.Errorf("Branch of a released floor: %v, want ErrBranch", err)
	}
}
