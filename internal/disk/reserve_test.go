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
func checkPages(t *testing.T, arena []byte, n int) {
	t.Helper()
	const ps = DefaultPageSize
	if len(arena) != n*ps {
		t.Fatalf("arena of %d bytes, want %d pages", len(arena), n)
	}
	for i := 0; i < n; i++ {
		if pg := arena[i*ps : (i+1)*ps]; !bytes.Equal(pg, bytes.Repeat([]byte{byte(i)}, ps)) {
			t.Fatalf("page %d does not hold its stamp", i)
		}
	}
}

// TestReserveAllocatesArenaOnce pins the reservation: a reserved loader
// arena is allocated once, at exactly the reserved size, however many
// Allocate calls fill it; without one it grows by doubling; and growth
// past a reservation that was too small falls back to doubling with every
// page intact. The arenas such growth retired stay allocated until the
// device hands its arena over, and Detach frees them. Backends without the
// capability ignore the hint.
func TestReserveAllocatesArenaOnce(t *testing.T) {
	const pages = 300
	stats := func(d *Disk) ArenaStats {
		st, ok := ArenaStatsOf(d.Backend())
		if !ok {
			t.Fatal("not a loader arena")
		}
		return st
	}

	reserved := New()
	defer reserved.Close()
	reserved.Reserve(pages)
	if reserved.NumPages() != 0 || stats(reserved).Len != 0 {
		t.Fatal("Reserve allocated pages")
	}
	fillPages(t, reserved, pages)
	if st := stats(reserved); st.Moves != 1 || st.Cap != st.Len || st.Len != pages*DefaultPageSize {
		t.Errorf("reserved arena: %+v, want one allocation of exactly %d bytes", st, pages*DefaultPageSize)
	}

	doubling := New()
	defer doubling.Close()
	fillPages(t, doubling, pages)
	if st := stats(doubling); st.Moves < 5 || st.Cap < st.Len {
		t.Errorf("unreserved arena: %+v, want growth by doubling", st)
	}

	before := LiveArenaBytes()
	short := New()
	short.Reserve(pages / 10)
	fillPages(t, short, pages)
	st := stats(short)
	if st.Moves < 2 {
		t.Errorf("under-reserved arena: %+v, want the doubling fallback to have run", st)
	}
	if live := LiveArenaBytes() - before; live <= int64(st.Cap) {
		t.Errorf("%d arena bytes live after %d moves, want the retired arenas beside the %d-byte current one", live, st.Moves, st.Cap)
	}
	arena, err := short.Detach()
	if err != nil {
		t.Fatal(err)
	}
	if live := LiveArenaBytes() - before; live != int64(st.Cap) {
		t.Errorf("%d arena bytes live after Detach, want the current arena's %d: retired arenas not freed", live, st.Cap)
	}
	checkPages(t, arena.Bytes(), pages)
	if err := arena.Release(); err != nil {
		t.Fatal(err)
	}
	if live := LiveArenaBytes() - before; live != 0 {
		t.Errorf("%d arena bytes live after the base's release, want 0", live)
	}

	cow := NewWithBackend(NewCOWBackend(nil))
	defer cow.Close()
	cow.Reserve(pages) // no capability: a no-op
	fillPages(t, cow, 3)
	if _, ok := ArenaStatsOf(cow.Backend()); ok {
		t.Error("a COW backend reported loader arena stats")
	}
}

// TestDetachHandsOverArena pins the hand-off: Detach returns a base whose
// floor is the page images in place (no copy: the floor is the arena the
// device wrote), clipped to the allocated pages, and the device is dead
// afterwards — every entry point fails with ErrDetached instead of
// touching a nil arena. The floor owns the arena: the device's Close
// leaves it alone, and it is freed at the base's last Release, not
// before. Only a loader arena can be detached.
func TestDetachHandsOverArena(t *testing.T) {
	const pages = 20
	before := LiveArenaBytes()
	d := New()
	d.Reserve(pages + 5) // over-reserved: the tail must not leak out
	fillPages(t, d, pages)
	flat := d.backend.(*memBackend).arena
	arena, err := d.Detach()
	if err != nil {
		t.Fatal(err)
	}
	checkPages(t, arena.Bytes(), pages)
	if &arena.Bytes()[0] != &flat[0] {
		t.Error("Detach copied the arena")
	}
	if data := arena.Bytes(); cap(data) != len(data) {
		t.Errorf("detached arena has capacity %d beyond its %d bytes", cap(data), len(data))
	}
	page := make([]byte, DefaultPageSize)
	views, borrowed := make([][]byte, 1), make([]bool, 1)
	for name, err := range map[string]error{
		"Allocate":      second(d.Allocate(1)),
		"WriteRun":      d.WriteRun(0, [][]byte{page}),
		"ReadRunShared": d.ReadRunShared(0, views, borrowed, func() []byte { return page }),
		"DumpTo":        d.DumpTo(&bytes.Buffer{}),
		"CopyBase":      second(d.CopyBase()),
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
	checkPages(t, arena.Bytes(), pages) // Close did not touch it

	reserved := int64((pages + 5) * DefaultPageSize)
	arena.Retain()
	if err := arena.Release(); err != nil {
		t.Fatal(err)
	}
	if live := LiveArenaBytes() - before; live != reserved || arena.fl.data == nil {
		t.Fatalf("%d arena bytes live with one reference left, want the %d reserved", live, reserved)
	}
	checkPages(t, arena.Bytes(), pages)
	if err := arena.Release(); err != nil {
		t.Fatal(err)
	}
	if live := LiveArenaBytes() - before; live != 0 || arena.fl.data != nil {
		t.Errorf("%d arena bytes live after the last release, want 0", live)
	}

	cow := NewWithBackend(NewCOWBackend(nil))
	defer cow.Close()
	if _, err := cow.Detach(); err == nil || errors.Is(err, ErrDetached) {
		t.Errorf("detach of a COW device: %v, want a not-a-loader-arena error", err)
	}
}

// TestCopyBaseOwnsItsArena pins the copy a freeze makes: the base holds
// the device's page images in an arena of its own, freed at its last
// release, while the device keeps its arena and keeps working.
func TestCopyBaseOwnsItsArena(t *testing.T) {
	const pages = 12
	before := LiveArenaBytes()
	d := New()
	defer d.Close()
	d.Reserve(pages)
	fillPages(t, d, pages)
	base, err := d.CopyBase()
	if err != nil {
		t.Fatal(err)
	}
	checkPages(t, base.Bytes(), pages)
	if &base.Bytes()[0] == &d.backend.(*memBackend).arena[0] {
		t.Error("CopyBase shares the device's arena")
	}
	if live := LiveArenaBytes() - before; live != 2*pages*DefaultPageSize {
		t.Errorf("%d arena bytes live, want the device's and the copy's %d each", live, pages*DefaultPageSize)
	}
	if err := d.WriteRun(0, [][]byte{bytes.Repeat([]byte{0xFF}, DefaultPageSize)}); err != nil {
		t.Fatalf("the device after CopyBase: %v", err)
	}
	checkPages(t, base.Bytes(), pages) // the copy did not see the write
	if err := base.Release(); err != nil {
		t.Fatal(err)
	}
	if live := LiveArenaBytes() - before; live != pages*DefaultPageSize {
		t.Errorf("%d arena bytes live after the copy's release, want the device's %d", live, pages*DefaultPageSize)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if live := LiveArenaBytes() - before; live != 0 {
		t.Errorf("%d arena bytes live after the device's close, want 0", live)
	}
}

func second[T any](_ T, err error) error { return err }
