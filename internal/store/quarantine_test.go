//go:build poison && linux

package store

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

// TestBorrowedFloorPageFaultsAfterLastRelease is a probe of the off-heap
// lifetimes: a frame of a view borrows a page of its base's floor — the
// loader arena Detach handed the base — and a slice of it kept past the
// floor's last release faults, because the poison build quarantines the
// arena instead of unmapping it. Until then the view's reference keeps
// the floor readable, whoever else has released it.
func TestBorrowedFloorPageFaultsAfterLastRelease(t *testing.T) {
	base, err := LoadBase(NSM, Options{}, testExtension(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	v, err := base.NewView(Options{BufferPages: 8})
	if err != nil {
		base.Release()
		t.Fatal(err)
	}
	f, err := v.eng.Pool.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	kept, want := f.Data, f.Data[len(f.Data)-1]
	v.eng.Pool.Unfix(0, false)
	if err := base.Release(); err != nil { // the loader's reference; the view holds the floor
		t.Fatal(err)
	}
	if faults(func() { sink = kept[len(kept)-1] }) || sink != want {
		t.Fatal("a borrowed page faulted, or changed, while its view still held the floor")
	}
	if err := v.Close(); err != nil { // the last reference
		t.Fatal(err)
	}
	if !faults(func() { sink = kept[len(kept)-1] }) {
		t.Error("a borrowed floor page was read without a fault after the floor's last release")
	}
}
