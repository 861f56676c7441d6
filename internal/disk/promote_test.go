package disk

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// flatPromote is the oracle: the next generation built the way the
// whole-arena promotion built it — a fresh numPages*pageSize slice, the
// old content copied in (truncated or zero-extended), the images applied
// on top, pages past numPages ignored.
func flatPromote(old []byte, numPages int, pages map[int][]byte) []byte {
	data := make([]byte, numPages*DefaultPageSize)
	copy(data, old)
	for pg, img := range pages {
		if pg < 0 || pg >= numPages {
			continue
		}
		copy(data[pg*DefaultPageSize:(pg+1)*DefaultPageSize], img)
	}
	return data
}

// checkGeneration compares a generation with its flat oracle page by
// page through every read path a view has — ReadAt and StablePage — and
// through the two whole-arena paths, WriteTo and Bytes.
func checkGeneration(t *testing.T, label string, gen *BaseArena, want []byte) {
	t.Helper()
	const ps = DefaultPageSize
	if gen.Len() != len(want) {
		t.Fatalf("%s: Len = %d, oracle has %d bytes", label, gen.Len(), len(want))
	}
	v := NewCOWBackend(gen)
	defer v.Close()
	got := make([]byte, ps)
	for pg := 0; pg*ps < len(want); pg++ {
		page := want[pg*ps : (pg+1)*ps]
		if err := v.ReadAt(got, pg*ps); err != nil {
			t.Fatalf("%s: page %d: %v", label, pg, err)
		}
		if !bytes.Equal(got, page) {
			t.Fatalf("%s: page %d differs from the flat oracle", label, pg)
		}
		// A stable alias is optional (a page past the floor with no image
		// has no memory to lend), but when offered it is the same bytes.
		if s, ok := v.(StablePager).StablePage(pg*ps, ps); ok && !bytes.Equal(s, page) {
			t.Fatalf("%s: stable page %d differs from the flat oracle", label, pg)
		}
	}
	var buf bytes.Buffer
	if n, err := gen.WriteTo(&buf); err != nil || n != int64(len(want)) || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s: WriteTo wrote %d bytes (err %v), byte-identical to the oracle: %v",
			label, n, err, bytes.Equal(buf.Bytes(), want))
	}
	if !bytes.Equal(gen.Bytes(), want) {
		t.Fatalf("%s: Bytes differs from the flat oracle", label)
	}
}

// TestPromoteMatchesFlatOracle is the generation structure's property
// test: seeded random promote sequences — random dirty sets, growth,
// shrink-then-regrow, short and oversized images, pages at or past
// numPages — are checked against the flat oracle at every generation,
// while views opened on early generations keep verifying their own bytes
// from their own goroutines through a thousand later promotes (run under
// -race: a promote must never write what an older generation reads).
//
// Every superseded generation no view holds has its page table wiped as
// soon as its successor exists. A successor that resolved pages through
// its predecessor — a parent chain instead of a path-copied table — would
// read garbage from then on, so passing pins that a lookup on generation
// 1 000 takes the same steps as on generation 1: table, then floor.
func TestPromoteMatchesFlatOracle(t *testing.T) {
	const (
		ps       = DefaultPageSize
		promotes = 1100
	)
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// A floor that ends mid-page on odd seeds: the short tail page
			// must read as its bytes followed by zeros.
			floor := make([]byte, 40*ps-int(seed%2)*17)
			rng.Read(floor)
			gen := NewBaseArena(append([]byte(nil), floor...))
			root := gen      // never promoted: its Bytes stays the floor itself
			genHeld := false // a reader goroutine holds a view of gen
			oracle := floor
			numPages := 40

			stop := make(chan struct{})
			var readers sync.WaitGroup
			hold := func(g *BaseArena, want []byte, label string) {
				v := NewCOWBackend(g)
				readers.Add(1)
				go func() {
					defer readers.Done()
					defer v.Close()
					// One page per pass, cycling through the view, then the
					// processor goes back to the promoting goroutine: every
					// byte is checked again and again while promotes run,
					// without starving them.
					got := make([]byte, ps)
					for off := 0; ; off = (off + ps) % len(want) {
						page := want[off:min(off+ps, len(want))]
						if err := v.ReadAt(got[:len(page)], off); err != nil {
							t.Errorf("%s: %v", label, err)
							return
						}
						if !bytes.Equal(got[:len(page)], page) {
							t.Errorf("%s: a later promote changed the bytes of an open view", label)
							return
						}
						select {
						case <-stop:
							return
						default:
							runtime.Gosched()
						}
					}
				}()
			}

			for step := 1; step <= promotes; step++ {
				switch r := rng.Intn(20); {
				case r == 0:
					numPages -= rng.Intn(min(numPages, 12)) // shrink, to no less than one page
				case r <= 2:
					numPages += 1 + rng.Intn(6)
				}
				pages := make(map[int][]byte)
				inRange := 0
				for k := rng.Intn(9); k > 0; k-- {
					pg := rng.Intn(numPages + 3)
					n := ps
					switch rng.Intn(10) {
					case 0:
						n = rng.Intn(ps) // short image: overrides a prefix
					case 1:
						n = ps + 1 + rng.Intn(ps) // oversized: truncated
					}
					img := make([]byte, n)
					rng.Read(img)
					if _, dup := pages[pg]; !dup && pg < numPages {
						inRange++
					}
					pages[pg] = img
				}

				next, copied := gen.Promote(numPages, pages)
				oracle = flatPromote(oracle, numPages, pages)
				// The leaf-copy bound: the root, the images, and at most one
				// leaf per image plus the one a shrink cuts into.
				fixed := int64(len(next.over))*int64(unsafe.Sizeof((*pageLeaf)(nil))) + int64(inRange*ps)
				if most := fixed + int64(inRange+1)*int64(unsafe.Sizeof(pageLeaf{})); copied < fixed || copied > most {
					t.Fatalf("step %d: promote reports %d bytes copied, want within [%d, %d] (root + %d images + their leaves)",
						step, copied, fixed, most, inRange)
				}
				// The images are copied: the caller scribbling on its own
				// slices afterwards must not reach the generation.
				for _, img := range pages {
					clear(img)
				}
				label := fmt.Sprintf("generation %d", step)
				checkGeneration(t, label, next, oracle)
				if next.DeltaPages() > numPages {
					t.Fatalf("%s holds %d committed pages of %d", label, next.DeltaPages(), numPages)
				}

				held := step <= 90 && step%30 == 0
				if held {
					hold(next, oracle, label)
				}
				if err := gen.Release(); err != nil {
					t.Fatal(err)
				}
				if !genHeld {
					clear(gen.over)
				}
				gen, genHeld = next, held
				if t.Failed() {
					break
				}
			}

			close(stop)
			readers.Wait()
			if !bytes.Equal(root.Bytes(), floor) {
				t.Fatal("promotes wrote the floor")
			}
			if gen.Refs() != 1 {
				t.Fatalf("floor refs = %d with every view closed, want 1 (the live generation)", gen.Refs())
			}
			if err := gen.Release(); err != nil {
				t.Fatal(err)
			}
			if gen.Refs() != 0 || root.Bytes() != nil {
				t.Fatal("floor not released with its last generation")
			}
		})
	}
}

// TestWriteToCoalescesFloorRuns pins the checkpoint streaming shape: a
// never-promoted base is one Write of the floor, and a promoted
// generation emits each maximal run of floor pages as a single Write
// between its committed pages.
func TestWriteToCoalescesFloorRuns(t *testing.T) {
	const ps = DefaultPageSize
	base, pristine := testBase(10)
	defer base.Release()
	var w countingWriter
	if _, err := base.WriteTo(&w); err != nil || len(w.sizes) != 1 || w.sizes[0] != len(pristine) {
		t.Fatalf("never-promoted base wrote %v (err %v), want one write of %d bytes", w.sizes, err, len(pristine))
	}

	img := bytes.Repeat([]byte{0xEE}, ps)
	gen, _ := base.Promote(12, map[int][]byte{3: img, 4: img, 8: img})
	defer gen.Release()
	w = countingWriter{}
	if _, err := gen.WriteTo(&w); err != nil {
		t.Fatal(err)
	}
	// floor 0-2 | 3 | 4 | floor 5-7 | 8 | floor 9 | zeros 10, 11
	want := []int{3 * ps, ps, ps, 3 * ps, ps, ps, ps, ps}
	if fmt.Sprint(w.sizes) != fmt.Sprint(want) {
		t.Fatalf("write sizes %v, want %v", w.sizes, want)
	}
}

type countingWriter struct{ sizes []int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return len(p), nil
}

// TestPromoteCopiesOnlyDirtyLeaves pins the path copy: the next
// generation's table shares every leaf no dirty page falls in with its
// predecessor — by pointer — copies the ones it writes, and reports the
// root, those leaves and the images as copied, whatever the arena's size.
func TestPromoteCopiesOnlyDirtyLeaves(t *testing.T) {
	const ps, numPages = DefaultPageSize, 40 * leafPages
	base, _ := testBase(numPages)
	defer base.Release()
	img := bytes.Repeat([]byte{0xC3}, ps)
	every := make(map[int][]byte)
	for pg := 0; pg < numPages; pg += leafPages {
		every[pg] = img // one page per leaf: every leaf exists from here on
	}
	first, _ := base.Promote(numPages, every)
	defer first.Release()

	dirty := map[int][]byte{3: img, 5: img, 7*leafPages + 1: img} // two leaves
	second, copied := first.Promote(numPages, dirty)
	defer second.Release()
	rootBytes := int64(len(second.over)) * int64(unsafe.Sizeof((*pageLeaf)(nil)))
	if want := rootBytes + 2*int64(unsafe.Sizeof(pageLeaf{})) + 3*ps; copied != want {
		t.Errorf("promote of 3 pages in 2 leaves copied %d bytes, want %d (root + 2 leaves + 3 images)", copied, want)
	}
	for li := range second.over {
		shared := second.over[li] == first.over[li]
		if wantShared := li != 0 && li != 7; shared != wantShared {
			t.Errorf("leaf %d shared with the predecessor: %v, want %v", li, shared, wantShared)
		}
	}
	if first.over.page(3) != nil || first.DeltaPages() != len(every) || second.DeltaPages() != len(every)+3 {
		t.Errorf("the promote wrote its predecessor, or miscounted: %d and %d committed pages", first.DeltaPages(), second.DeltaPages())
	}
}
