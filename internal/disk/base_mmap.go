//go:build linux

package disk

import (
	"fmt"
	"os"
	"syscall"
)

// CanMapBase reports whether this platform supports mmap-backed base
// arenas. Where it is false, MapBaseArena falls back to a heap copy.
const CanMapBase = true

// MapBaseArena maps n bytes at offset off of the open file f into an
// immutable base arena. The mapping is PROT_READ/MAP_PRIVATE: the
// arena physically cannot be written (a stray store faults instead of
// corrupting the snapshot), pages are faulted in from the page cache on
// first access, and clean pages can be evicted again under memory
// pressure — so a view over a paper-scale snapshot starts with near-zero
// resident arena and only ever pays for the pages its queries touch.
//
// The file must not be truncated or rewritten while the base is alive
// (mapped reads would observe the change or fault); the snapshot writer's
// atomic rename keeps replaced snapshots safe, because the mapping pins
// the old inode. The mapping is released when the last reference goes
// (see BaseArena.Release).
//
// Callers that parsed offsets out of f must map through the same
// descriptor, so that a concurrent atomic replacement of the path cannot
// pair one file's offsets with another file's bytes. f may be closed once
// MapBaseArena returns; the mapping keeps the file alive.
func MapBaseArena(f *os.File, off int64, n int) (*BaseArena, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("disk: map base [%d,%d+%d): negative range", off, off, n)
	}
	if n == 0 {
		return NewBaseArena(nil), nil
	}
	if st, err := f.Stat(); err != nil {
		return nil, fmt.Errorf("disk: map base: %w", err)
	} else if off+int64(n) > st.Size() {
		return nil, fmt.Errorf("disk: map base [%d,%d) past end of %d-byte file", off, off+int64(n), st.Size())
	}
	// mmap offsets must be page-aligned; map from the aligned-down offset
	// and slice the arena out of the mapping.
	pg := int64(os.Getpagesize())
	aligned := off &^ (pg - 1)
	head := int(off - aligned)
	m, err := syscall.Mmap(int(f.Fd()), aligned, head+n, syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("disk: map base: %w", err)
	}
	a := NewBaseArena(m[head : head+n : head+n])
	a.fl.mapped = true
	a.fl.unmap = func() error {
		if err := unmapRange(m); err != nil {
			return fmt.Errorf("disk: unmap base: %w", err)
		}
		return nil
	}
	return a, nil
}
