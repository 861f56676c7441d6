//go:build poison

package buffer

import (
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
