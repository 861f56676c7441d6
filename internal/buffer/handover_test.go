package buffer

import (
	"testing"

	"complexobj/internal/disk"
)

// TestEngineHandOver is the ownership rule under the race detector: a
// device and its pool carry no lock, so they belong to one goroutine at a
// time and change hands through something that synchronises — here a
// channel, in the product ViewPool and fanout. Goroutine A dirties more
// pages than the pool holds, hands the engine to B, which reads A's pages
// back, dirties the rest and flushes; the test takes it back and finds
// every byte and every counter of both.
func TestEngineHandOver(t *testing.T) {
	type engine struct {
		dev  *disk.Disk
		pool *Pool
	}
	const pages = 64
	stamp := func(e engine, from, to disk.PageID, b byte) {
		for id := from; id < to; id++ {
			f, err := e.pool.Fix(id)
			if err != nil {
				t.Error(err)
				return
			}
			e.pool.MarkDirty(f)
			f.Data[disk.SysHeaderSize] = b
			if err := e.pool.Unfix(id, true); err != nil {
				t.Error(err)
			}
		}
	}
	check := func(e engine, from, to disk.PageID, b byte) {
		for id := from; id < to; id++ {
			f, err := e.pool.Fix(id)
			if err != nil {
				t.Error(err)
				return
			}
			if got := f.Data[disk.SysHeaderSize]; got != b {
				t.Errorf("page %d holds %#x, want %#x", id, got, b)
			}
			if err := e.pool.Unfix(id, false); err != nil {
				t.Error(err)
			}
		}
	}
	d, p := newEnv(t, 8, LRU)
	if _, err := d.Allocate(pages); err != nil {
		t.Fatal(err)
	}
	toB, back := make(chan engine), make(chan engine)
	go func() { // A
		e := engine{d, p}
		stamp(e, 0, pages/2, 0xA1)
		toB <- e
	}()
	go func() { // B
		e := <-toB
		check(e, 0, pages/2, 0xA1)
		stamp(e, pages/2, pages, 0xB2)
		if err := e.pool.FlushAll(); err != nil {
			t.Error(err)
		}
		back <- e
	}()
	e := <-back
	check(e, 0, pages/2, 0xA1)
	check(e, pages/2, pages, 0xB2)
	if got, want := e.pool.Fixes(), int64(pages/2+pages/2+pages/2+pages); got != want {
		t.Errorf("fixes = %d, want %d: a hand-over lost counts", got, want)
	}
	if st := e.dev.Stats(); st.PagesWritten != pages {
		t.Errorf("pages written = %d, want %d", st.PagesWritten, pages)
	}
}
