package snapshot

import "complexobj/internal/store"

// EntryKinds lists the kinds each entry of the snapshot at path holds, in
// file order.
func EntryKinds(path string) ([][]store.Kind, error) {
	f, entries, err := openParsed(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make([][]store.Kind, len(entries))
	for i, e := range entries {
		out[i] = e.kinds.list()
	}
	return out, nil
}
