package disk

// readCopy is the tests' read: n contiguous pages with one counted I/O
// call through ReadRunShared — the device's only read path — returned as
// private copies, so later writes never show through.
func readCopy(d *Disk, start PageID, n int) ([][]byte, error) {
	if n <= 0 {
		return nil, ErrBadRun
	}
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

// ReadCopy hands readCopy to the external test package (resilience_test.go).
var ReadCopy = readCopy
