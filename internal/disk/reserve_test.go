package disk

import (
	"bytes"
	"errors"
	"testing"
)

// fillPages allocates n pages one at a time, as a heap load does, each
// stamped with its own number.
func fillPages(t *testing.T, d *Disk, n int) {
	t.Helper()
	img := make([]byte, d.PageSize())
	for i := 0; i < n; i++ {
		id, err := d.Allocate(1)
		if err != nil {
			t.Fatal(err)
		}
		for j := range img {
			img[j] = byte(id)
		}
		if err := d.WriteRun(id, [][]byte{img}); err != nil {
			t.Fatal(err)
		}
	}
}

// checkPages verifies what fillPages wrote, straight from arena bytes.
func checkPages(t *testing.T, arena []byte, pageSize, n int) {
	t.Helper()
	if len(arena) != n*pageSize {
		t.Fatalf("arena of %d bytes, want %d pages of %d", len(arena), n, pageSize)
	}
	for i := 0; i < n; i++ {
		if pg := arena[i*pageSize : (i+1)*pageSize]; !bytes.Equal(pg, bytes.Repeat([]byte{byte(i)}, pageSize)) {
			t.Fatalf("page %d does not hold its stamp", i)
		}
	}
}

// TestReserveAllocatesArenaOnce pins the reservation: a reserved heap
// arena is allocated once, at exactly the reserved size, however many
// Allocate calls fill it; without one it grows by doubling; and growth
// past a reservation that was too small falls back to doubling with every
// page intact. Backends without the capability ignore the hint.
func TestReserveAllocatesArenaOnce(t *testing.T) {
	const pages = 300
	stats := func(d *Disk) HeapArenaStats {
		st, ok := HeapArenaStatsOf(d.Backend())
		if !ok {
			t.Fatal("not a heap arena")
		}
		return st
	}

	reserved := New(DefaultPageSize)
	reserved.Reserve(pages)
	if reserved.NumPages() != 0 || stats(reserved).Len != 0 {
		t.Fatal("Reserve allocated pages")
	}
	fillPages(t, reserved, pages)
	if st := stats(reserved); st.Moves != 1 || st.Cap != st.Len || st.Len != pages*DefaultPageSize {
		t.Errorf("reserved arena: %+v, want one allocation of exactly %d bytes", st, pages*DefaultPageSize)
	}

	doubling := New(DefaultPageSize)
	fillPages(t, doubling, pages)
	if st := stats(doubling); st.Moves < 5 || st.Cap < st.Len {
		t.Errorf("unreserved arena: %+v, want growth by doubling", st)
	}

	short := New(DefaultPageSize)
	short.Reserve(pages / 10)
	fillPages(t, short, pages)
	if st := stats(short); st.Moves < 2 {
		t.Errorf("under-reserved arena: %+v, want the doubling fallback to have run", st)
	}
	arena, err := short.Detach()
	if err != nil {
		t.Fatal(err)
	}
	checkPages(t, arena, DefaultPageSize, pages)

	cow := NewWithBackend(DefaultPageSize, NewCOWBackend(nil, DefaultPageSize))
	defer cow.Close()
	cow.Reserve(pages) // no capability: a no-op
	fillPages(t, cow, 3)
	if _, ok := HeapArenaStatsOf(cow.Backend()); ok {
		t.Error("a COW backend reported heap arena stats")
	}
}

// TestDetachHandsOverArena pins the hand-off: Detach returns the page
// images in place (no copy: the slice is the arena the device wrote),
// clipped to the allocated pages, and the device is dead afterwards —
// every entry point fails with ErrDetached instead of touching a nil
// arena. Only a heap arena can be detached.
func TestDetachHandsOverArena(t *testing.T) {
	const pages = 20
	d := New(DefaultPageSize)
	d.Reserve(pages + 5) // over-reserved: the tail must not leak out
	fillPages(t, d, pages)
	flat := d.backend.(*memBackend).arena
	arena, err := d.Detach()
	if err != nil {
		t.Fatal(err)
	}
	checkPages(t, arena, DefaultPageSize, pages)
	if &arena[0] != &flat[0] {
		t.Error("Detach copied the arena")
	}
	if cap(arena) != len(arena) {
		t.Errorf("detached arena has capacity %d beyond its %d bytes", cap(arena), len(arena))
	}
	page := make([]byte, DefaultPageSize)
	views, borrowed := make([][]byte, 1), make([]bool, 1)
	for name, err := range map[string]error{
		"Allocate":      second(d.Allocate(1)),
		"WriteRun":      d.WriteRun(0, [][]byte{page}),
		"ReadRunShared": d.ReadRunShared(0, views, borrowed, func() []byte { return page }),
		"DumpTo":        d.DumpTo(&bytes.Buffer{}),
		"Detach":        second(d.Detach()),
	} {
		if !errors.Is(err, ErrDetached) {
			t.Errorf("%s on a detached device: %v, want ErrDetached", name, err)
		}
	}
	d.Reserve(10) // harmless
	if err := d.Close(); err != nil {
		t.Errorf("close of a detached device: %v", err)
	}
	checkPages(t, arena, DefaultPageSize, pages) // Close did not touch it

	cow := NewWithBackend(DefaultPageSize, NewCOWBackend(nil, DefaultPageSize))
	defer cow.Close()
	if _, err := cow.Detach(); err == nil || errors.Is(err, ErrDetached) {
		t.Errorf("detach of a COW device: %v, want a not-a-heap-arena error", err)
	}
}

func second[T any](_ T, err error) error { return err }
