package buffer

import (
	"bytes"
	"errors"
	"testing"

	"complexobj/internal/disk"
)

// TestBufferBorrowsSharedPages pins the zero-copy miss path on every
// stable backend: a fixed frame aliases backend memory (Borrowed), the
// pool's borrow counter moves, and the bytes match what a copying read
// would have produced.
func TestBufferBorrowsSharedPages(t *testing.T) {
	for name, newDev := range testDevices(t) {
		t.Run(name, func(t *testing.T) {
			d := newDev()
			defer d.Close()
			if _, err := d.Allocate(8); err != nil {
				t.Fatal(err)
			}
			want := bytes.Repeat([]byte{0x3C}, disk.DefaultPageSize)
			if err := d.WriteRun(5, [][]byte{want}); err != nil {
				t.Fatal(err)
			}
			p := New(d, 4, LRU)
			f, err := p.Fix(5)
			if err != nil {
				t.Fatal(err)
			}
			if !f.Borrowed() {
				t.Fatalf("%s: miss did not borrow from a stable backend", name)
			}
			if !bytes.Equal(f.Data, want) {
				t.Error("borrowed frame bytes differ from the device page")
			}
			if p.Borrows() != 1 {
				t.Errorf("Borrows() = %d, want 1", p.Borrows())
			}
			// A cache hit must not count another borrow.
			if err := p.Unfix(5, false); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Fix(5); err != nil {
				t.Fatal(err)
			}
			if p.Borrows() != 1 {
				t.Errorf("Borrows() after hit = %d, want 1", p.Borrows())
			}
			if err := p.Unfix(5, false); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMarkDirtyPromotesBorrowedFrame pins the copy-on-first-write
// contract: MarkDirty on a borrowed frame replaces Data with a private
// copy, later writes land only in that copy, and the backend bytes stay
// untouched until the flush writes them back through the device.
func TestMarkDirtyPromotesBorrowedFrame(t *testing.T) {
	for name, newDev := range testDevices(t) {
		t.Run(name, func(t *testing.T) {
			d := newDev()
			defer d.Close()
			if _, err := d.Allocate(4); err != nil {
				t.Fatal(err)
			}
			orig := bytes.Repeat([]byte{0x11}, disk.DefaultPageSize)
			if err := d.WriteRun(2, [][]byte{orig}); err != nil {
				t.Fatal(err)
			}
			p := New(d, 4, LRU)
			f, err := p.Fix(2)
			if err != nil {
				t.Fatal(err)
			}
			if !f.Borrowed() {
				t.Fatal("frame not borrowed")
			}
			shared := f.Data
			p.MarkDirty(f)
			if f.Borrowed() {
				t.Fatal("MarkDirty left the frame borrowed")
			}
			if &f.Data[0] == &shared[0] {
				t.Fatal("MarkDirty did not replace the borrowed slice")
			}
			if !bytes.Equal(f.Data, orig) {
				t.Fatal("promotion lost the page content")
			}
			// Mutate the private copy: the backend page and the previously
			// borrowed slice must both still hold the original bytes.
			for i := range f.Data {
				f.Data[i] = 0xEE
			}
			if !bytes.Equal(shared, orig) {
				t.Error("write after promotion leaked into backend memory")
			}
			onDisk, err := readCopy(d, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk[0], orig) {
				t.Error("device page changed before flush")
			}
			if err := p.Unfix(2, true); err != nil {
				t.Fatal(err)
			}
			if err := p.FlushAll(); err != nil {
				t.Fatal(err)
			}
			onDisk, err = readCopy(d, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk[0], bytes.Repeat([]byte{0xEE}, disk.DefaultPageSize)) {
				t.Error("flush did not write the promoted copy back")
			}
			// MarkDirty on an already-owned frame is idempotent: no second
			// promotion, same slice.
			f2, err := p.Fix(2)
			if err != nil {
				t.Fatal(err)
			}
			p.MarkDirty(f2)
			data := f2.Data
			p.MarkDirty(f2)
			if &f2.Data[0] != &data[0] {
				t.Error("second MarkDirty replaced the owned slice")
			}
			if err := p.Unfix(2, true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDirtyUnfixOfBorrowedFrameFails pins the guard that turns a missed
// MarkDirty conversion into a loud error instead of silent backend
// corruption: dirty-unfixing a still-borrowed frame is refused, and the
// frame survives to be promoted properly.
func TestDirtyUnfixOfBorrowedFrameFails(t *testing.T) {
	for name, newDev := range testDevices(t) {
		t.Run(name, func(t *testing.T) {
			d := newDev()
			defer d.Close()
			if _, err := d.Allocate(2); err != nil {
				t.Fatal(err)
			}
			p := New(d, 2, LRU)
			f, err := p.Fix(1)
			if err != nil {
				t.Fatal(err)
			}
			if !f.Borrowed() {
				t.Fatal("frame not borrowed")
			}
			if err := p.Unfix(1, true); !errors.Is(err, ErrBorrowedWrite) {
				t.Fatalf("dirty unfix of borrowed frame: %v, want ErrBorrowedWrite", err)
			}
			// The failed unfix still released the pin; the proper sequence
			// works afterwards.
			f, err = p.Fix(1)
			if err != nil {
				t.Fatal(err)
			}
			p.MarkDirty(f)
			if err := p.Unfix(1, true); err != nil {
				t.Fatal(err)
			}
			if err := p.FlushAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDiscardDropsBorrowsBeforeReset pins the view-recycling order: a
// pool full of borrowed frames can Discard (no write-back, borrows
// released) and the device can then ResetView without any frame still
// aliasing recycled overlay images.
func TestDiscardDropsBorrowsBeforeReset(t *testing.T) {
	base := disk.NewBaseArena(make([]byte, 8*disk.DefaultPageSize))
	d, err := disk.Open(disk.NewCOWBackend(base))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	p := New(d, 4, LRU)
	// Materialize one overlay page and borrow two base pages.
	f, err := p.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	p.MarkDirty(f)
	f.Data[100] = 0x77
	if err := p.Unfix(0, true); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []disk.PageID{1, 2} {
		if _, err := p.Fix(id); err != nil {
			t.Fatal(err)
		}
		if err := p.Unfix(id, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Discard(); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 {
		t.Fatalf("%d frames resident after Discard", p.Len())
	}
	if !d.ResetView() {
		t.Fatal("ResetView unsupported on a cow device")
	}
	// The recycled view reads pristine base bytes again.
	f, err = p.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Data[100] != 0 {
		t.Error("reset view still shows the previous overlay write")
	}
	if err := p.Unfix(0, false); err != nil {
		t.Fatal(err)
	}
}
