package disk

import (
	"fmt"
	"sync"
	"unsafe"
)

// chunkPages is how many pages a PagePool maps at a time: one chunk of 256
// KiB.
const chunkPages = 128

// PagePool is a LIFO of page buffers that outlives the engines
// drawing on it, the level under each engine's one free list (doc.go,
// "Page buffer ownership"); each branch of a base also keeps one for its
// committed images (doc.go, "Committed page images"). The pages are not
// on the Go heap: a pool cuts
// them from chunks, memory of its own mapped chunkPages pages at a time
// like a loader arena (allocArena) and counted with those in
// LiveArenaBytes, and Drain gives the chunks back once every page cut from
// them is back. It also keeps the scaffolds closing engines leave for the
// next ones (Disk.ReleasePages, Disk.TakeScaffold). A pooled page and a
// fresh one are alike to everything above this package — contents
// unspecified — and reused scaffolding is reset before use, so no counter
// can depend on the pool. Safe for concurrent use.
type PagePool struct {
	mu         sync.Mutex
	free       pageStack
	chunks     [][]byte // every chunk mapped, whole
	uncut      []byte   // the part of the newest chunk no page was cut from
	gets, hits int64
	scaffolds  stack[scaffold]
}

// scaffold is what a closing engine leaves for the next: its buffer
// pool's emptied scaffolding, an opaque value package buffer defines; its
// COW overlay's page table with every leaf emptied (the leaves stay
// attached); and its free list's backing array at length zero.
type scaffold struct {
	buf   any
	table pageTable
	free  stack[[]byte]
}

// pageList is an engine's one free list of page buffers: its buffer
// pool's frames and its COW overlay's images alike (Disk.NewPage,
// Disk.FreePage). It has one owner and no lock, and asks its PagePool only
// when it is empty. With no pool it makes a buffer on the heap, and what
// it would release is dropped.
type pageList struct {
	free stack[[]byte]
	pool *PagePool
}

// get returns the buffer put last, else one from the pool, else a fresh one.
func (l *pageList) get() []byte {
	if b, ok := l.free.pop(); ok {
		return b
	}
	if l.pool != nil {
		return l.pool.Get()
	}
	b := make([]byte, DefaultPageSize)
	poisonPage(b)
	return b
}

// put takes back a buffer nothing references any more.
func (l *pageList) put(b []byte) {
	poisonPage(b)
	l.free = append(l.free, b)
}

// release hands the pool a closing engine's scaffold, the list's buffers
// and array in it. With no pool it drops them, the overlay's images
// poisoned as the list's were when they were put.
func (l *pageList) release(s scaffold) {
	if l.pool != nil {
		l.pool.release(s)
	} else {
		s.table.each(func(_ int, slot *[]byte) { poisonPage(*slot) })
	}
	l.free = nil
}

// takeScaffold is the pool's scaffold released last; ok is false when
// none is held or there is no pool.
func (l *pageList) takeScaffold() (s scaffold, ok bool) {
	if l.pool == nil {
		return s, false
	}
	return l.pool.takeScaffold()
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

// NewPagePool returns an empty pool.
func NewPagePool() *PagePool { return &PagePool{} }

// Get returns a page buffer, contents unspecified: the page put last when
// one is held, else a page cut from a chunk, else a fresh heap buffer. A
// page's capacity is its length, so no append reaches the next.
func (p *PagePool) Get() []byte {
	p.mu.Lock()
	p.gets++
	b, ok := p.free.pop()
	if ok {
		p.hits++
	} else {
		b = p.cut()
	}
	p.mu.Unlock()
	if b == nil {
		b = make([]byte, DefaultPageSize)
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
		c, err := allocArena(chunkPages * DefaultPageSize)
		if err != nil {
			return nil
		}
		p.chunks = append(p.chunks, c)
		p.uncut = c
		p.free.reserve()
	}
	b := p.uncut[:DefaultPageSize:DefaultPageSize]
	p.uncut = p.uncut[DefaultPageSize:]
	return b
}

// Put takes over pages nothing references any more and clears the
// caller's slots, so the slice's array can be reused at once; a buffer of
// another length is dropped.
func (p *PagePool) Put(pages [][]byte) {
	p.mu.Lock()
	for _, b := range pages {
		p.put(b)
	}
	p.mu.Unlock()
	clear(pages)
}

// put takes over one page; the caller holds the lock.
func (p *PagePool) put(b []byte) {
	poisonPage(b)
	if len(b) == DefaultPageSize {
		p.free.push(b)
	}
}

// release takes over a closing engine's free pages, then its overlay's
// images straight from the table's leaves, which it empties, so no list
// grows to carry them; it keeps the scaffold, the list's array emptied,
// for the next engine (takeScaffold).
func (p *PagePool) release(s scaffold) {
	p.Put(s.free)
	p.mu.Lock()
	defer p.mu.Unlock()
	s.table.each(func(_ int, slot *[]byte) {
		p.put(*slot)
		*slot = nil
	})
	s.free = s.free[:0]
	p.scaffolds = append(p.scaffolds, s)
}

// takeScaffold hands out the scaffold released last, as its releaser left
// it: the taker resets it. ok is false when none is held.
func (p *PagePool) takeScaffold() (scaffold, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.scaffolds.pop()
}

// Stats reports the Gets seen, how many of them the pool served,
// and the pages it holds.
func (p *PagePool) Stats() (gets, hits int64, held int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.hits, p.free.n
}

// Scaffolds reports how many scaffolds of closed engines the pool holds.
func (p *PagePool) Scaffolds() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.scaffolds)
}

// Drain drops the scaffolding the pool holds and gives every chunk back to
// the operating system, the pages it holds with them; its counters stay
// and it remains usable. A page cut from a chunk that is not back in the
// pool would read unmapped memory, so while one is out Drain unmaps
// nothing, keeps the pages, and reports how many are out.
func (p *PagePool) Drain() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.scaffolds = nil
	out := len(p.chunks)*chunkPages - len(p.uncut)/DefaultPageSize
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
