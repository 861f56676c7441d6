package buffer

import "complexobj/internal/disk"

// Borrowed reports whether Data still aliases backend memory (zero-copy
// fix not yet promoted by MarkDirty).
func (f *Frame) Borrowed() bool { return f.borrowed }

// Len returns the number of resident pages.
func (p *Pool) Len() int { return p.resident }

// Contains reports whether the page is resident.
func (p *Pool) Contains(id disk.PageID) bool { return p.frameAt(id) != nil }
