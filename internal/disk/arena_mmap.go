//go:build linux

package disk

import (
	"fmt"
	"syscall"
)

// allocArena returns a zeroed arena of exactly n bytes of capacity in an
// anonymous private mapping, outside the Go heap (doc.go, "Reservation and
// hand-off"): a loader arena or a page pool's chunk. A load writes every
// byte it reserved, and a pool cuts every page of a chunk before it maps
// the next, so the mapping is prefaulted rather than faulted in a page at
// a time. The bytes count in LiveArenaBytes until freeArena.
func allocArena(n int) ([]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_POPULATE)
	if err != nil {
		return nil, fmt.Errorf("disk: map arena of %d bytes: %w", n, err)
	}
	liveArena.Add(int64(n))
	return b, nil
}

// freeArena unmaps an arena allocArena returned (any reslice of it that
// keeps its first byte and its capacity). Every slice of it is invalid
// afterwards.
func freeArena(b []byte) error {
	if cap(b) == 0 {
		return nil
	}
	if err := unmapRange(b[:cap(b)]); err != nil {
		return fmt.Errorf("disk: unmap arena: %w", err)
	}
	liveArena.Add(-int64(cap(b)))
	return nil
}

// unmapRange gives a mapping back to the operating system, whose next
// mapping may reuse the address. Under the poison tag it quarantines the
// range instead: its pages are dropped (MADV_DONTNEED) and the range made
// inaccessible (PROT_NONE) but kept mapped, so the address is never handed
// out again and a read through a stale slice faults rather than reading
// whatever was mapped there next. The ledger line quarantined counts such
// ranges.
func unmapRange(m []byte) error {
	if !poison {
		return syscall.Munmap(m)
	}
	if err := syscall.Madvise(m, syscall.MADV_DONTNEED); err != nil {
		return err
	}
	if err := syscall.Mprotect(m, syscall.PROT_NONE); err != nil {
		return err
	}
	quarantined.Add(int64(len(m)))
	return nil
}
