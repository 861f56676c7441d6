package disk

// RecycleState reports the lineage of a's branch: the retired images some
// live generation can still read, the number of free images, and how many
// images promotes have reused so far. All zero before the branch's first
// promote and once it drained.
func (a *BaseArena) RecycleState() (pinned [][]byte, free int, reused int64) {
	br := a.br
	br.mu.Lock()
	defer br.mu.Unlock()
	if br.lin == nil {
		return nil, 0, 0
	}
	for _, r := range br.lin.retired {
		if r.img != nil {
			pinned = append(pinned, r.img)
		}
	}
	_, hits, held := br.lin.pages.Stats()
	return pinned, held, hits
}
