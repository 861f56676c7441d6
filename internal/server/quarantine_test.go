//go:build poison && linux

package server

import (
	"runtime/debug"
	"testing"

	"complexobj"
	"complexobj/internal/snapshot"
	"complexobj/internal/store"
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

// TestDBFloorFaultsAfterServerRelease is a probe of the off-heap
// lifetimes: a page of a -db floor — the snapshot file mapping the server
// and every other opener of the file share — read through a frame and
// kept past the server's release of its models faults, because the
// poison build quarantines the mapping instead of unmapping it. While the
// server serves, its reference keeps the floor readable, whoever else has
// released it.
func TestDBFloorFaultsAfterServerRelease(t *testing.T) {
	path, _ := buildSnapshot(t, 40)
	srv, err := New(Config{Snapshot: path, Models: []complexobj.ModelKind{complexobj.NSM}, BufferPages: 64, MaxViews: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := snapshot.OpenBase(path, store.NSM) // the server's mapped floor
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	if !b.Mapped() {
		t.Fatal("the snapshot's NSM entry is not a file mapping")
	}
	v, err := b.NewView(store.Options{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	pool := v.Engine().Pool
	f, err := pool.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	kept, want := f.Data, f.Data[len(f.Data)-1]
	pool.Unfix(0, false)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Release(); err != nil { // this opener's reference; the server holds the floor
		t.Fatal(err)
	}
	if faults(func() { sink = kept[len(kept)-1] }) || sink != want {
		t.Fatal("a -db floor page faulted, or changed, while the server still served it")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if !faults(func() { sink = kept[len(kept)-1] }) {
		t.Error("a -db floor page was read without a fault after the server released its models")
	}
}
