//go:build poison

package buffer

import (
	"bytes"
	"testing"

	"complexobj/internal/disk"
)

// TestKeptFixRunResultReadsNil: under the poison tag a FixRun result kept
// past the next FixRun reads nil frames, never the next run's frames, and
// the new result is whole.
func TestKeptFixRunResultReadsNil(t *testing.T) {
	d, p := newEnv(t, 8, LRU)
	if _, err := d.Allocate(6); err != nil {
		t.Fatal(err)
	}
	unfix := func(ids []disk.PageID) {
		for _, id := range ids {
			if err := p.Unfix(id, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	first := []disk.PageID{0, 1, 2}
	kept, err := p.FixRun(first)
	if err != nil {
		t.Fatal(err)
	}
	unfix(first)
	second := []disk.PageID{3, 4}
	next, err := p.FixRun(second)
	if err != nil {
		t.Fatal(err)
	}
	unfix(second)
	for i, f := range kept {
		if f != nil {
			t.Errorf("kept result slot %d reads frame %d after the next FixRun", i, f.ID)
		}
	}
	for i, f := range next {
		if f == nil || f.ID != second[i] {
			t.Errorf("new result slot %d = %v, want page %d", i, f, second[i])
		}
	}
}

// TestEvictedFrameDataReadsPoison: under the poison tag the Data of a frame
// kept past its eviction reads 0xDB at once — its buffer went back to the
// device's free list — instead of a later page's bytes.
func TestEvictedFrameDataReadsPoison(t *testing.T) {
	d, p := newEnv(t, 2, LRU)
	if _, err := d.Allocate(3); err != nil {
		t.Fatal(err)
	}
	f, err := p.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	p.MarkDirty(f) // an owned buffer, not the arena's page
	copy(f.Data, "kept")
	kept := f.Data
	if err := p.Unfix(0, true); err != nil {
		t.Fatal(err)
	}
	for id := disk.PageID(1); id < 3; id++ { // the second evicts page 0
		if _, err := p.Fix(id); err != nil {
			t.Fatal(err)
		}
		if err := p.Unfix(id, false); err != nil {
			t.Fatal(err)
		}
	}
	if p.Contains(0) {
		t.Fatal("page 0 is still resident")
	}
	if !bytes.Equal(kept, bytes.Repeat([]byte{0xDB}, len(kept))) {
		t.Errorf("an evicted frame's Data reads %q..., want 0xDB", kept[:8])
	}
}
