package store

import (
	"bytes"
	"fmt"
	"testing"
)

// TestBorrowedViewsKeepBasePristine is the store-level borrow-safety
// regression for the zero-copy read path: a view over a frozen base
// serves requests from frames that alias the shared base arena, so a
// mutating request that skipped the copy-on-first-write promotion would
// corrupt the base for every sibling view. Several recycle generations of
// read + update traffic must leave the base arena byte-identical, with
// the pool actually borrowing (not silently falling back to copies).
func TestBorrowedViewsKeepBasePristine(t *testing.T) {
	stations := testExtension(t, 40)
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			loaded := loadModel(t, k, stations)
			base, err := Freeze(loaded)
			if err != nil {
				t.Fatal(err)
			}
			loaded.Engine().Close()
			defer base.Release()
			pristine := append([]byte(nil), checksumBase(base)...)

			v, err := base.NewView(Options{BufferPages: 200})
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			for gen := 0; gen < 3; gen++ {
				viewExercise(t, v.Model, true)
				if got := v.Engine().Pool.Borrows(); got == 0 {
					t.Fatalf("generation %d: view served without borrowing a single frame", gen)
				}
				if !bytes.Equal(checksumBase(base), pristine) {
					t.Fatalf("generation %d: view traffic mutated the shared base arena", gen)
				}
				if _, err := v.Recycle(); err != nil {
					t.Fatal(err)
				}
			}
			// After the last recycle the base must still serve the original
			// data through a fresh read.
			root, err := v.Model.ReadRoot(2)
			if err != nil {
				t.Fatal(err)
			}
			if root.Name == fmt.Sprintf("upd #%d", 2) {
				t.Error("recycled view still shows the previous generation's update")
			}
			if !bytes.Equal(checksumBase(base), pristine) {
				t.Fatal("base arena mutated across recycles")
			}
		})
	}
}
