//go:build !linux

package disk

import (
	"fmt"
	"io"
	"os"
)

// CanMapBase reports whether this platform supports mmap-backed base
// arenas. Where it is false, MapBaseArena falls back to a heap copy.
const CanMapBase = false

// MapBaseArena reads n bytes at offset off of the open file f into a
// heap-backed base arena: the portable fallback with identical semantics
// to the Linux mmap variant, minus the lazy paging (Mapped reports
// false). The lifecycle contract is unchanged — the arena is released
// when the last reference goes. Callers that parsed offsets out of f must
// read through the same descriptor, so that a concurrent atomic
// replacement of the path cannot pair one file's offsets with another
// file's bytes.
func MapBaseArena(f *os.File, off int64, n int) (*BaseArena, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("disk: map base [%d,%d+%d): negative range", off, off, n)
	}
	if n == 0 {
		return NewBaseArena(nil), nil
	}
	data := make([]byte, n)
	if _, err := f.ReadAt(data, off); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("disk: map base [%d,%d) past end of file", off, off+int64(n))
		}
		return nil, fmt.Errorf("disk: map base: %w", err)
	}
	return NewBaseArena(data), nil
}
