package disk

import "sync"

// PagePool is a LIFO of page buffers of one size that outlives the engines
// drawing on it, the level under their private free lists (doc.go, "Page
// buffer ownership"). A pooled page and a fresh one are alike to everything
// above this package — contents unspecified — so no counter can depend on
// the pool. A nil *PagePool is the garbage collector: Get makes, Put drops.
// Safe for concurrent use.
type PagePool struct {
	mu         sync.Mutex
	pageSize   int
	free       [][]byte
	gets, hits int64
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
		if k := len(p.free); k > 0 {
			b, p.free[k-1] = p.free[k-1], nil
			p.free = p.free[:k-1]
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

// Put takes over pages nothing references any more (the caller drops its
// slice); a buffer of another length is dropped.
func (p *PagePool) Put(pages [][]byte) {
	for _, b := range pages {
		poisonPage(b)
	}
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range pages {
		if len(b) == p.pageSize {
			p.free = append(p.free, b)
		}
	}
}

// Stats reports the page-size Gets seen, how many of them the pool served,
// and the pages it holds.
func (p *PagePool) Stats() (gets, hits int64, held int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.hits, len(p.free)
}
