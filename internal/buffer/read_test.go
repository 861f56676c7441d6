package buffer

import "complexobj/internal/disk"

// readCopy reads n contiguous pages straight off the device — one counted
// call through ReadRunShared, bypassing every pool — as private copies:
// how the tests check what a flush actually put on disk.
func readCopy(d *disk.Disk, start disk.PageID, n int) ([][]byte, error) {
	views := make([][]byte, n)
	borrowed := make([]bool, n)
	err := d.ReadRunShared(start, views, borrowed, func() []byte { return make([]byte, d.PageSize()) })
	if err != nil {
		return nil, err
	}
	for i, b := range borrowed {
		if b {
			views[i] = append([]byte(nil), views[i]...)
		}
	}
	return views, nil
}
