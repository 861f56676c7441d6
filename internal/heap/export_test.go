package heap

import "complexobj/internal/disk"

// Pages returns the page IDs in allocation order. The caller must not
// modify the slice.
func (h *Heap) Pages() []disk.PageID { return h.pages }
