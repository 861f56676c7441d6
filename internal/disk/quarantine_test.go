//go:build poison && linux

package disk

import (
	"runtime/debug"
	"testing"
)

// sink keeps a probe's read from being optimised away.
var sink byte

// faults reports whether read faulted, the fault recovered as a panic.
func faults(read func()) (faulted bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		_, faulted = recover().(interface{ Addr() uintptr }) // a memory fault, not any panic
	}()
	read()
	return false
}

// TestDrainedPageFaults is a probe of the off-heap lifetimes: a pool page
// its engine kept after Put and read after Drain faults. The poison build
// quarantines the drained chunk instead of unmapping it, so the next chunk
// mapped — of the same size, mapped just after, where an unmapped range
// is most likely to be handed out again — cannot land on its address and
// lend the stale slice its bytes.
func TestDrainedPageFaults(t *testing.T) {
	p := NewPagePool()
	kept := p.Get()
	p.Put([][]byte{kept})
	before := quarantined.Load()
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := quarantined.Load()-before, int64(chunkPages*DefaultPageSize); got != want {
		t.Errorf("Drain quarantined %d bytes, want the chunk's %d", got, want)
	}
	next := NewPagePool()
	fresh := next.Get()
	if !faults(func() { sink = kept[0] }) {
		t.Error("a page kept past its pool's Drain was read without a fault")
	}
	next.Put([][]byte{fresh})
	if err := next.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainedBranchImageFaults is the same probe for committed images:
// they are pages of their branch's pool, so one kept past the branch's
// last release — its pool drained and the chunk quarantined — faults
// instead of reading what the next mapping put there.
func TestDrainedBranchImageFaults(t *testing.T) {
	base, _ := testBase(4)
	gen, _ := base.Promote(4, map[int][]byte{1: make([]byte, DefaultPageSize)})
	if err := base.Release(); err != nil {
		t.Fatal(err)
	}
	kept := gen.page(1)
	before := quarantined.Load()
	if err := gen.Release(); err != nil {
		t.Fatal(err)
	}
	if got, want := quarantined.Load()-before, int64(chunkPages*DefaultPageSize); got != want {
		t.Errorf("the branch's last release quarantined %d bytes, want its pool's chunk of %d", got, want)
	}
	next := NewPagePool()
	fresh := next.Get()
	if !faults(func() { sink = kept[0] }) {
		t.Error("a committed image kept past its branch's last release was read without a fault")
	}
	next.Put([][]byte{fresh})
	if err := next.Drain(); err != nil {
		t.Fatal(err)
	}
}
