package store

// Meta returns the directory metadata of the current generation. Read-only.
func (b *SharedBase) Meta() []byte {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.dir.meta
}

// TotalPages sums the page counts of all relations.
func (r SizeReport) TotalPages() int {
	n := 0
	for _, rel := range r.Relations {
		n += rel.M
	}
	return n
}
