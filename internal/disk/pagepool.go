package disk

import (
	"fmt"
	"sync"
	"unsafe"
)

// chunkPages is how many pages a PagePool maps at a time: one chunk of 256
// KiB at the default page size.
const chunkPages = 128

// PagePool is a LIFO of page buffers of one size that outlives the engines
// drawing on it, the level under their private free lists (doc.go, "Page
// buffer ownership"). The pages are not on the Go heap: a pool cuts them
// from chunks, memory of its own mapped chunkPages pages at a time like a
// loader arena (allocArena) and counted with those in LiveArenaBytes, and
// Drain gives the chunks back once every page cut from them is back. It
// also keeps the emptied scaffolding a closing engine leaves for the next
// one: its buffer pool's, an opaque value package buffer defines, and its
// COW overlay's page table and image list. A pooled page and a fresh one
// are alike to everything above this package — contents unspecified — and
// reused scaffolding is reset before use, so no counter can depend on the
// pool. A nil *PagePool is the garbage collector: Get makes, the puts
// drop, TakeScaffold has nothing. Safe for concurrent use.
type PagePool struct {
	mu         sync.Mutex
	pageSize   int
	free       pageStack
	chunks     [][]byte // every chunk mapped, whole
	uncut      []byte   // the part of the newest chunk no page was cut from
	gets, hits int64
	scaffolds  stack[any]
	overlays   stack[overlay]
}

// overlay is what a closing COW backend leaves for the next: its page
// table with every leaf emptied (the leaves stay attached), and its image
// free list's backing array at length zero.
type overlay struct {
	table pageTable
	imgs  [][]byte
}

// pageStack is the pool's free list: a LIFO of pages kept in segments of
// chunkPages slots, one reserved for each chunk the pool maps, so there is
// a slot for every page cut and a Put never grows it. A segment is
// allocated once and never copied: the list costs its final size, where
// one slice regrown at every chunk cost about three times that.
type pageStack struct {
	segs [][][]byte
	n    int // pages held
}

// reserve adds a segment: room for chunkPages more pages.
func (s *pageStack) reserve() { s.segs = append(s.segs, make([][]byte, chunkPages)) }

func (s *pageStack) push(b []byte) {
	if s.n == len(s.segs)*chunkPages { // a page no chunk of the pool's was cut for
		s.reserve()
	}
	s.segs[s.n/chunkPages][s.n%chunkPages] = b
	s.n++
}

// pop takes the page pushed last and clears its slot.
func (s *pageStack) pop() ([]byte, bool) {
	if s.n == 0 {
		return nil, false
	}
	s.n--
	slot := &s.segs[s.n/chunkPages][s.n%chunkPages]
	b := *slot
	*slot = nil
	return b, true
}

// stack is a LIFO whose pop clears the slot it empties.
type stack[T any] []T

func (s *stack[T]) pop() (v T, ok bool) {
	n := len(*s)
	if n == 0 {
		return v, false
	}
	v = (*s)[n-1]
	clear((*s)[n-1:])
	*s = (*s)[:n-1]
	return v, true
}

// NewPagePool returns an empty pool of pageSize-byte buffers (0 means
// DefaultPageSize).
func NewPagePool(pageSize int) *PagePool {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &PagePool{pageSize: pageSize}
}

// Get returns an n-byte buffer, contents unspecified: the page put last
// when n is the pool's page size and one is held, else a page cut from a
// chunk, else a fresh heap buffer — the only place a device page buffer is
// made. A page's capacity is its length, so no append reaches the next.
func (p *PagePool) Get(n int) []byte {
	var b []byte
	if p != nil && n == p.pageSize {
		p.mu.Lock()
		p.gets++
		var ok bool
		if b, ok = p.free.pop(); ok {
			p.hits++
		} else {
			b = p.cut()
		}
		p.mu.Unlock()
	}
	if b == nil {
		b = make([]byte, n)
	}
	poisonPage(b)
	return b
}

// cut returns the next page of the newest chunk, mapping a chunk when that
// one is used up, and nil when the mapping fails (Get then makes the page
// on the heap). A new chunk reserves a segment for its pages in the free
// list, so a Put of the pages cut so far never grows it.
func (p *PagePool) cut() []byte {
	if len(p.uncut) == 0 {
		c, err := allocArena(chunkPages * p.pageSize)
		if err != nil {
			return nil
		}
		p.chunks = append(p.chunks, c)
		p.uncut = c
		p.free.reserve()
	}
	b := p.uncut[:p.pageSize:p.pageSize]
	p.uncut = p.uncut[p.pageSize:]
	return b
}

// Put takes over pages nothing references any more and clears the
// caller's slots, so the slice's array can be reused at once; a buffer of
// another length is dropped.
func (p *PagePool) Put(pages [][]byte) {
	p.lock()
	for _, b := range pages {
		p.put(b)
	}
	p.unlock()
	clear(pages)
}

// putTable is Put for the images of an overlay table, which it empties in
// the same pass.
func (p *PagePool) putTable(t pageTable) {
	p.lock()
	t.each(func(_ int, slot *[]byte) {
		p.put(*slot)
		*slot = nil
	})
	p.unlock()
}

// put takes over one page; the caller holds the lock of a non-nil pool.
func (p *PagePool) put(b []byte) {
	poisonPage(b)
	if p != nil && len(b) == p.pageSize {
		p.free.push(b)
	}
}

func (p *PagePool) lock() {
	if p != nil {
		p.mu.Lock()
	}
}

func (p *PagePool) unlock() {
	if p != nil {
		p.mu.Unlock()
	}
}

// PutScaffold takes over the emptied scaffolding of a released buffer
// pool, which nothing else references any more, for the next buffer pool
// opened over a device of this page pool (TakeScaffold).
func (p *PagePool) PutScaffold(s any) {
	if p != nil {
		p.mu.Lock()
		p.scaffolds = append(p.scaffolds, s)
		p.mu.Unlock()
	}
}

// TakeScaffold hands out the scaffolding put last, nil when none is held,
// as its releaser left it: the taker resets it.
func (p *PagePool) TakeScaffold() any {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s, _ := p.scaffolds.pop()
	return s
}

// putOverlay takes over a COW overlay's emptied table and image list.
func (p *PagePool) putOverlay(o overlay) {
	if p != nil && o.table != nil {
		p.mu.Lock()
		p.overlays = append(p.overlays, o)
		p.mu.Unlock()
	}
}

// takeOverlay hands out the overlay put last, the zero overlay when none
// is held.
func (p *PagePool) takeOverlay() overlay {
	if p == nil {
		return overlay{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	o, _ := p.overlays.pop()
	return o
}

// Stats reports the page-size Gets seen, how many of them the pool served,
// and the pages it holds.
func (p *PagePool) Stats() (gets, hits int64, held int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.hits, p.free.n
}

// Scaffolds reports how many emptied scaffolds, buffer pools' and COW
// overlays', the pool holds.
func (p *PagePool) Scaffolds() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.scaffolds) + len(p.overlays)
}

// Drain drops the scaffolding the pool holds and gives every chunk back to
// the operating system, the pages it holds with them; its counters stay
// and it remains usable. A page cut from a chunk that is not back in the
// pool would read unmapped memory, so while one is out Drain unmaps
// nothing, keeps the pages, and reports how many are out.
func (p *PagePool) Drain() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.scaffolds, p.overlays = nil, nil
	out := len(p.chunks)*chunkPages - len(p.uncut)/p.pageSize
	for _, seg := range p.free.segs {
		for _, b := range seg {
			if p.inChunk(b) {
				out--
			}
		}
	}
	if out > 0 {
		return fmt.Errorf("disk: drain page pool: %d pages still out", out)
	}
	var err error
	for _, c := range p.chunks {
		if e := freeArena(c); err == nil {
			err = e
		}
	}
	p.free, p.chunks, p.uncut = pageStack{}, nil, nil
	return err
}

// inChunk reports whether page b was cut from one of the pool's chunks.
func (p *PagePool) inChunk(b []byte) bool {
	at := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	for _, c := range p.chunks {
		if lo := uintptr(unsafe.Pointer(unsafe.SliceData(c))); at >= lo && at < lo+uintptr(len(c)) {
			return true
		}
	}
	return false
}
