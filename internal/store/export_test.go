package store

import "complexobj/internal/disk"

// Meta returns the directory blob of the current generation, encoding it
// if the base was loaded. Read-only.
func (b *SharedBase) Meta() []byte {
	b.mu.RLock()
	dir := b.dir
	b.mu.RUnlock()
	meta, err := dir.blob()
	if err != nil {
		panic(err)
	}
	return meta
}

// TotalPages sums the page counts of all relations.
func (r SizeReport) TotalPages() int {
	n := 0
	for _, rel := range r.Relations {
		n += rel.M
	}
	return n
}

// BranchArena opens a branch of the base's floor (disk.BaseArena.Branch)
// for a second base to stand on.
func (b *SharedBase) BranchArena() (*disk.BaseArena, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.arena.Branch()
}

// Poison reports the poison build tag.
const Poison = poison
