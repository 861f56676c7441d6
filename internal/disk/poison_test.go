//go:build poison

package disk

import (
	"bytes"
	"math/rand"
	"testing"
)

// Under the poison tag a page reads 0xDB from the moment it is given back
// and again when it is handed out, fresh ones included: nothing may rely
// on a returned page's old bytes or on a new page's zeros.
func TestPagePoolPoisons(t *testing.T) {
	want := bytes.Repeat([]byte{0xDB}, DefaultPageSize)
	p := NewPagePool()
	b := p.Get()
	if !bytes.Equal(b, want) {
		t.Fatalf("a fresh page reads %x...", b[:8])
	}
	clear(b)
	p.Put([][]byte{b})
	if !bytes.Equal(b, want) {
		t.Fatalf("a returned page still reads %x...", b[:8])
	}
	clear(b)
	if b = p.Get(); !bytes.Equal(b, want) {
		t.Fatalf("a recycled page reads %x...", b[:8])
	}
	p.Put([][]byte{b})
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
}

// A device's free list poisons too, with no page pool under it: a page it
// makes reads 0xDB, and so does a page given to it, whether freed
// (FreePage) or an overlay image a reset dropped.
func TestDeviceListPoisons(t *testing.T) {
	want := bytes.Repeat([]byte{0xDB}, DefaultPageSize)
	d := NewWithBackend(NewCOWBackend(nil))
	defer d.Close()
	b := d.NewPage()
	if !bytes.Equal(b, want) {
		t.Fatalf("a page the list made reads %x...", b[:8])
	}
	clear(b)
	d.FreePage(b)
	if !bytes.Equal(b, want) {
		t.Fatalf("a freed page still reads %x...", b[:8])
	}
	if _, err := d.Allocate(1); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRun(0, [][]byte{make([]byte, DefaultPageSize)}); err != nil {
		t.Fatal(err)
	}
	img, _ := d.stable.StablePage(0, DefaultPageSize)
	d.ResetView()
	if !bytes.Equal(img, want) {
		t.Fatalf("an overlay image a reset dropped still reads %x...", img[:8])
	}
}

// TestParkedGenerationSurvivesRecycling is recycling's safety fence: a
// view parked on a generation keeps reading that generation byte for byte
// while two hundred commits from other views recycle images, leaves and
// roots around it. Under the poison tag an image reads 0xDB from the
// moment it is freed, so a generation that lost an image it still reads
// fails here even before the image is reused.
func TestParkedGenerationSurvivesRecycling(t *testing.T) {
	const ps, numPages = DefaultPageSize, 8 * leafPages
	gen, _ := testBase(numPages)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5; i++ {
		gen = commitThroughView(t, gen, randomPages(rng, numPages, 8))
	}
	parked, err := Open(NewCOWBackend(gen))
	if err != nil {
		t.Fatal(err)
	}
	defer parked.Close()
	want, err := readCopy(parked, 0, numPages)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		gen = commitThroughView(t, gen, randomPages(rng, numPages, 1+rng.Intn(12)))
		if i%50 == 49 {
			got, err := readCopy(parked, 0, numPages)
			if err != nil {
				t.Fatal(err)
			}
			for pg := range got {
				if !bytes.Equal(got[pg], want[pg]) {
					t.Fatalf("after %d commits the parked view reads page %d as %x..., want %x...", i+1, pg, got[pg][:8], want[pg][:8])
				}
			}
		}
	}
	if _, _, reused := gen.RecycleState(); reused == 0 {
		t.Fatal("200 commits reused no image; the fence is vacuous")
	}
	if err := gen.Release(); err != nil {
		t.Fatal(err)
	}
}
