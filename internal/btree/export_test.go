package btree

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.entries }
