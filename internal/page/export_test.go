package page

// NumSlots returns the size of the slot directory, including deleted slots.
func (p Page) NumSlots() int { return p.numSlots() }

// Live returns the number of non-deleted records.
func (p Page) Live() int {
	n := 0
	for i := 0; i < p.numSlots(); i++ {
		if off, _ := p.slot(i); off != delSentinel {
			n++
		}
	}
	return n
}
