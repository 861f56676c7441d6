package disk

import "sync"

// PagePool is a LIFO of page buffers of one size that outlives the engines
// drawing on it, the level under their private free lists (doc.go, "Page
// buffer ownership"). It also keeps the emptied scaffolding a closing
// engine leaves for the next one: its buffer pool's, an opaque value
// package buffer defines, and its COW overlay's page table and image list.
// A pooled page and a fresh one are alike to everything above this package
// — contents unspecified — and reused scaffolding is reset before use, so
// no counter can depend on the pool. A nil *PagePool is the garbage
// collector: Get makes, the puts drop, TakeScaffold has nothing. Safe for
// concurrent use.
type PagePool struct {
	mu         sync.Mutex
	pageSize   int
	free       stack[[]byte]
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
// when n is the pool's page size and one is held, else a fresh one — the
// only place a device page buffer is made.
func (p *PagePool) Get(n int) []byte {
	var b []byte
	if p != nil && n == p.pageSize {
		p.mu.Lock()
		p.gets++
		var ok bool
		if b, ok = p.free.pop(); ok {
			p.hits++
		}
		p.mu.Unlock()
	}
	if b == nil {
		b = make([]byte, n)
	}
	poisonPage(b)
	return b
}

// Put takes over pages nothing references any more and clears the
// caller's slots, so the slice's array can be reused at once; a buffer of
// another length is dropped.
func (p *PagePool) Put(pages [][]byte) {
	for _, b := range pages {
		poisonPage(b)
	}
	if p != nil {
		p.mu.Lock()
		for _, b := range pages {
			if len(b) == p.pageSize {
				p.free = append(p.free, b)
			}
		}
		p.mu.Unlock()
	}
	clear(pages)
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
	return p.gets, p.hits, len(p.free)
}

// Scaffolds reports how many emptied scaffolds, buffer pools' and COW
// overlays', the pool holds.
func (p *PagePool) Scaffolds() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.scaffolds) + len(p.overlays)
}

// Drain drops everything the pool holds, pages and scaffolding, to the
// garbage collector; its counters stay and it remains usable.
func (p *PagePool) Drain() {
	if p != nil {
		p.mu.Lock()
		p.free, p.scaffolds, p.overlays = nil, nil, nil
		p.mu.Unlock()
	}
}
