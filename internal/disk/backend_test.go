package disk

import (
	"bytes"
	"testing"

	"complexobj/internal/iostat"
)

// backends lists the built-in backends for table-driven device tests.
// "cow" runs with a nil base (fully private overlay); shared-base
// behaviour is pinned in cow_test.go.
func backends(t *testing.T) map[string]func() Backend {
	t.Helper()
	return map[string]func() Backend{
		"mem": func() Backend { return NewMemBackend() },
		"cow": func() Backend { return NewCOWBackend(nil) },
	}
}

// TestBackendGrowZeroes asserts fresh arena bytes read as zero on every
// backend, the invariant Allocate's "fresh zeroed pages" contract rests on.
func TestBackendGrowZeroes(t *testing.T) {
	for name, open := range backends(t) {
		t.Run(name, func(t *testing.T) {
			b := open()
			defer b.Close()
			if err := b.Grow(4096); err != nil {
				t.Fatal(err)
			}
			if b.Len() != 4096 {
				t.Fatalf("Grow(4096) left Len %d", b.Len())
			}
			arena := bytes.Repeat([]byte{0xAA}, 4096) // dirty buffer: ReadAt must overwrite it
			if err := b.ReadAt(arena, 0); err != nil {
				t.Fatal(err)
			}
			for i, v := range arena {
				if v != 0 {
					t.Fatalf("fresh byte %d is %d, want 0", i, v)
				}
			}
			if err := b.WriteAt([]byte("mark"), 0); err != nil {
				t.Fatal(err)
			}
			if err := b.Grow(3 << 19); err != nil { // far past the doubled capacity: the loader arena moves
				t.Fatal(err)
			}
			head := make([]byte, 4)
			if err := b.ReadAt(head, 0); err != nil {
				t.Fatal(err)
			}
			if string(head) != "mark" {
				t.Fatalf("contents lost across grow: %q", head)
			}
			tail := bytes.Repeat([]byte{0xAA}, 4096)
			if err := b.ReadAt(tail, b.Len()-4096); err != nil {
				t.Fatal(err)
			}
			for i, v := range tail {
				if v != 0 {
					t.Fatalf("grown byte %d is %d, want 0", i, v)
				}
			}
		})
	}
}

// TestBackendRangeChecks asserts out-of-arena accesses fail on every
// backend instead of silently clipping.
func TestBackendRangeChecks(t *testing.T) {
	for name, open := range backends(t) {
		t.Run(name, func(t *testing.T) {
			b := open()
			defer b.Close()
			if err := b.Grow(1024); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 256)
			if err := b.ReadAt(buf, 1000); err == nil {
				t.Error("ReadAt past the arena succeeded")
			}
			if err := b.WriteAt(buf, 1000); err == nil {
				t.Error("WriteAt past the arena succeeded")
			}
			if err := b.ReadAt(buf, -1); err == nil {
				t.Error("ReadAt at negative offset succeeded")
			}
		})
	}
}

// TestDiskRestoreDump round-trips a device through the one way a dump
// comes back: DumpTo streams the arena (the flat path for the heap
// arena, the chunked path for an overlay), NewBaseArena adopts the image
// as a floor, and a copy-on-write device over it reads the same pages —
// with no counter touched on either side.
func TestDiskRestoreDump(t *testing.T) {
	img := make([]byte, DefaultPageSize)
	copy(img, []byte("snapshot me"))
	for name, open := range backends(t) {
		t.Run(name, func(t *testing.T) {
			src := NewWithBackend(open())
			defer src.Close()
			if _, err := src.Allocate(5); err != nil {
				t.Fatal(err)
			}
			if err := src.WriteRun(2, [][]byte{img}); err != nil {
				t.Fatal(err)
			}
			before := src.Stats()
			var buf bytes.Buffer
			if err := src.DumpTo(&buf); err != nil {
				t.Fatal(err)
			}
			if got := src.Stats(); got != before {
				t.Fatalf("dump touched counters: %+v, were %+v", got, before)
			}

			base := NewBaseArena(bytes.Clone(buf.Bytes()))
			dst, err := Open(NewCOWBackend(base))
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()
			if err := base.Release(); err != nil {
				t.Fatal(err)
			}
			if got := dst.Stats(); got != (iostat.Stats{}) {
				t.Fatalf("restore touched counters: %+v", got)
			}
			if dst.NumPages() != 5 {
				t.Fatalf("restored %d pages, want 5", dst.NumPages())
			}
			back, err := readCopy(dst, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back[0], img) {
				t.Fatal("restored page differs")
			}
			var dump bytes.Buffer
			if err := dst.DumpTo(&dump); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dump.Bytes(), buf.Bytes()) {
				t.Fatal("dump of restored device differs from original dump")
			}
		})
	}
}
