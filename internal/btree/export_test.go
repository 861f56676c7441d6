package btree

import "complexobj/internal/disk"

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.entries }

// Root returns the root page (stable across splits: the root is copied,
// never moved).
func (t *Tree) Root() disk.PageID { return t.root }
