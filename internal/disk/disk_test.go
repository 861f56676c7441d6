package disk

import (
	"bytes"
	"errors"
	"testing"
)

// newTestDisk is a device over a fresh loader arena, closed — its arena
// unmapped — when the test ends.
func newTestDisk(t *testing.T) *Disk {
	t.Helper()
	return closeAtEnd(t, New())
}

// closeAtEnd closes d when the test ends.
func closeAtEnd(t *testing.T, d *Disk) *Disk {
	t.Cleanup(func() {
		if err := d.Close(); err != nil {
			t.Error(err)
		}
	})
	return d
}

func TestGeometry(t *testing.T) {
	d := newTestDisk(t)
	if d.PageSize() != 2048 {
		t.Errorf("PageSize = %d, want 2048", d.PageSize())
	}
	if d.EffectivePageSize() != 2012 {
		t.Errorf("EffectivePageSize = %d, want 2012 (paper's S_page)", d.EffectivePageSize())
	}
}

func TestAllocateContiguous(t *testing.T) {
	d := newTestDisk(t)
	a, err := d.Allocate(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 || b != 3 {
		t.Errorf("allocations at %d,%d; want 0,3", a, b)
	}
	if d.NumPages() != 5 {
		t.Errorf("NumPages = %d, want 5", d.NumPages())
	}
}

func TestAllocateRejectsNonPositive(t *testing.T) {
	d := newTestDisk(t)
	if _, err := d.Allocate(0); !errors.Is(err, ErrBadRun) {
		t.Errorf("Allocate(0) err = %v, want ErrBadRun", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := newTestDisk(t)
	start, _ := d.Allocate(4)
	pages := make([][]byte, 4)
	for i := range pages {
		pages[i] = make([]byte, d.PageSize())
		for j := range pages[i] {
			pages[i][j] = byte(i + j)
		}
	}
	if err := d.WriteRun(start, pages); err != nil {
		t.Fatal(err)
	}
	got, err := readCopy(d, start, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i], pages[i]) {
			t.Fatalf("page %d mismatch", i)
		}
	}
}

func TestReadReturnsCopies(t *testing.T) {
	d := newTestDisk(t)
	start, _ := d.Allocate(1)
	got, _ := readCopy(d, start, 1)
	got[0][0] = 0xFF
	again, _ := readCopy(d, start, 1)
	if again[0][0] == 0xFF {
		t.Error("mutating a read buffer leaked into the device")
	}
}

func TestIOAccounting(t *testing.T) {
	d := newTestDisk(t)
	start, _ := d.Allocate(10)
	if s := d.Stats(); s.Pages() != 0 || s.Calls() != 0 {
		t.Fatalf("allocation should be free, got %v", s)
	}
	if _, err := readCopy(d, start, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := readCopy(d, start+4, 1); err != nil {
		t.Fatal(err)
	}
	blank := make([][]byte, 3)
	for i := range blank {
		blank[i] = make([]byte, d.PageSize())
	}
	if err := d.WriteRun(start, blank); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.PagesRead != 5 || s.ReadCalls != 2 {
		t.Errorf("reads: %d pages in %d calls, want 5 in 2", s.PagesRead, s.ReadCalls)
	}
	if s.PagesWritten != 3 || s.WriteCalls != 1 {
		t.Errorf("writes: %d pages in %d calls, want 3 in 1", s.PagesWritten, s.WriteCalls)
	}
}

func TestResetStats(t *testing.T) {
	d := newTestDisk(t)
	start, _ := d.Allocate(1)
	readCopy(d, start, 1)
	d.ResetStats()
	if s := d.Stats(); s.Pages() != 0 || s.Calls() != 0 {
		t.Errorf("ResetStats left %v", s)
	}
	// Contents must survive a stats reset.
	if _, err := readCopy(d, start, 1); err != nil {
		t.Errorf("read after ResetStats: %v", err)
	}
}

func TestOutOfRange(t *testing.T) {
	d := newTestDisk(t)
	d.Allocate(2)
	if _, err := readCopy(d, 1, 2); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read past end err = %v, want ErrOutOfRange", err)
	}
	if err := d.WriteRun(2, [][]byte{make([]byte, d.PageSize())}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("write past end err = %v, want ErrOutOfRange", err)
	}
}

func TestWriteRejectsWrongSize(t *testing.T) {
	d := newTestDisk(t)
	d.Allocate(1)
	if err := d.WriteRun(0, [][]byte{make([]byte, 10)}); err == nil {
		t.Error("short page write accepted")
	}
}

func TestZeroLengthRuns(t *testing.T) {
	d := newTestDisk(t)
	d.Allocate(1)
	if _, err := readCopy(d, 0, 0); !errors.Is(err, ErrBadRun) {
		t.Errorf("ReadRun n=0 err = %v", err)
	}
	if err := d.WriteRun(0, nil); !errors.Is(err, ErrBadRun) {
		t.Errorf("WriteRun empty err = %v", err)
	}
}

func TestReadRunFillsCallerBuffers(t *testing.T) {
	d := newTestDisk(t)
	start, _ := d.Allocate(3)
	pages := make([][]byte, 3)
	for i := range pages {
		pages[i] = make([]byte, d.PageSize())
		pages[i][0] = byte(i + 1)
	}
	if err := d.WriteRun(start, pages); err != nil {
		t.Fatal(err)
	}
	dst, err := readCopy(d, start, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i][0] != byte(i+1) {
			t.Errorf("page %d: got %d, want %d", i, dst[i][0], i+1)
		}
	}
	if s := d.Stats(); s.ReadCalls != 1 || s.PagesRead != 3 {
		t.Errorf("accounting: %v, want 1 call / 3 pages", s)
	}
}

// TestReadRunRejectsWrongBufferSize: a copy buffer that is not one page
// long is refused (over an opaque backend, where every page is copied).
func TestReadRunRejectsWrongBufferSize(t *testing.T) {
	d := closeAtEnd(t, NewWithBackend(opaque{NewMemBackend()}))
	d.Allocate(1)
	err := d.ReadRunShared(0, make([][]byte, 1), make([]bool, 1), func() []byte { return make([]byte, 10) })
	if !errors.Is(err, ErrBadBuffer) {
		t.Errorf("short buffer err = %v, want ErrBadBuffer", err)
	}
}

func TestArenaGrowthPreservesContents(t *testing.T) {
	d := newTestDisk(t)
	start, _ := d.Allocate(1)
	page := make([][]byte, 1)
	page[0] = make([]byte, d.PageSize())
	page[0][7] = 0xAB
	if err := d.WriteRun(start, page); err != nil {
		t.Fatal(err)
	}
	// Force many arena regrowths.
	for i := 0; i < 200; i++ {
		if _, err := d.Allocate(17); err != nil {
			t.Fatal(err)
		}
	}
	got, err := readCopy(d, start, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][7] != 0xAB {
		t.Errorf("arena growth lost page contents: byte = %#x", got[0][7])
	}
	// Fresh pages must be zeroed.
	last, err := readCopy(d, PageID(d.NumPages()-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range last[0] {
		if b != 0 {
			t.Fatal("freshly allocated page not zeroed")
		}
	}
}
