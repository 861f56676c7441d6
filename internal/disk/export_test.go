package disk

// RecycleState reports the lineage of a's floor: the retired images some
// live generation can still read, the number of free images, and how many
// images promotes have reused so far. All zero when recycling is off.
func (a *BaseArena) RecycleState() (pinned [][]byte, free int, reused int64) {
	f := a.fl
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.lin == nil {
		return nil, 0, 0
	}
	for _, r := range f.lin.retired {
		if r.img != nil {
			pinned = append(pinned, r.img)
		}
	}
	return pinned, len(f.lin.imgs), f.lin.reused
}
