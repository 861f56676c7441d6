//go:build linux

package disk

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// fileBackend maps the page arena onto a scratch file with mmap. The file
// is grown in extents (ftruncate + remap), so the Disk's contiguous-arena
// invariant — page p at arena[p*pageSize:(p+1)*pageSize] — holds on real
// storage, and a run transfer is still a pair of memmoves. The mapping is
// MAP_SHARED: stores land in the page cache immediately and Flush forces
// them to the device with msync.
type fileBackend struct {
	f       *os.File
	path    string
	mapped  []byte   // the whole mapped extent capacity
	size    int      // logical arena length (<= len(mapped))
	retired [][]byte // superseded mappings kept alive for stable slices
}

// OpenFileBackend creates an empty file-backed arena at path, truncating
// whatever the path held: arena files are scratch, removed on Close and
// never reopened.
func OpenFileBackend(path string) (Backend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: open arena file: %w", err)
	}
	return &fileBackend{f: f, path: path}, nil
}

// remap grows the file to cap bytes and maps it, replacing any previous
// mapping. ftruncate zero-fills the extension, so fresh pages read as
// zeroes just like heap allocation.
//
// The superseded mapping is retired, not unmapped: stable slices handed
// out through StablePage may still point into it, and munmap would turn
// them into SIGSEGVs. Retired mappings are MAP_SHARED views of the same
// file, so they keep observing every write through the live mapping (the
// kernel backs all of them with the same page-cache pages); they cost
// address space, not memory, and are released on Close. Grow doubles the
// capacity, so the retained address space is bounded by the final arena
// size.
func (b *fileBackend) remap(capBytes int) error {
	if b.mapped != nil {
		b.retired = append(b.retired, b.mapped)
		b.mapped = nil
	}
	if err := b.f.Truncate(int64(capBytes)); err != nil {
		return fmt.Errorf("disk: grow arena file: %w", err)
	}
	m, err := syscall.Mmap(int(b.f.Fd()), 0, capBytes,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("disk: mmap arena: %w", err)
	}
	b.mapped = m
	return nil
}

func (b *fileBackend) Bytes() []byte { return b.mapped[:b.size:b.size] }
func (b *fileBackend) Len() int      { return b.size }

func (b *fileBackend) Grow(n int) error {
	if n > len(b.mapped) {
		// Double the capacity (still extent-aligned) so the number of
		// retired mappings stays O(log n) and their summed address space
		// stays under the final capacity.
		capBytes := roundUp(n, DefaultExtentBytes)
		if min := 2 * len(b.mapped); capBytes < min {
			capBytes = roundUp(min, DefaultExtentBytes)
		}
		if err := b.remap(capBytes); err != nil {
			return err
		}
	}
	if n > b.size {
		b.size = n
	}
	return nil
}

func (b *fileBackend) ReadAt(p []byte, off int) error {
	if err := checkRange(off, len(p), b.size); err != nil {
		return err
	}
	copy(p, b.mapped[off:])
	return nil
}

func (b *fileBackend) WriteAt(p []byte, off int) error {
	if err := checkRange(off, len(p), b.size); err != nil {
		return err
	}
	copy(b.mapped[off:], p)
	return nil
}

// StablePage implements StablePager over the live mapping. Slices stay
// valid across Grow because superseded mappings are retired (see remap),
// and — being MAP_SHARED views of the same file — keep reflecting writes
// made through the current mapping.
func (b *fileBackend) StablePage(off, n int) ([]byte, bool) {
	if off < 0 || n <= 0 || off+n > b.size {
		return nil, false
	}
	return b.mapped[off : off+n : off+n], true
}

func (b *fileBackend) Flush() error {
	if len(b.mapped) == 0 {
		return nil
	}
	// The stdlib syscall package does not export Msync; issue it raw.
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
		uintptr(unsafe.Pointer(&b.mapped[0])), uintptr(len(b.mapped)), uintptr(syscall.MS_SYNC))
	if errno != 0 {
		return fmt.Errorf("disk: msync arena: %w", errno)
	}
	return nil
}

// Close unmaps and deletes the arena file. Nothing is synced first:
// writeback for a file that is unlinked two lines later is pure wasted
// blocking I/O.
func (b *fileBackend) Close() error {
	var firstErr error
	keep := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	if b.mapped != nil {
		keep(syscall.Munmap(b.mapped))
		b.mapped = nil
	}
	for _, m := range b.retired {
		keep(syscall.Munmap(m))
	}
	b.retired = nil
	keep(b.f.Close())
	keep(removeArena(b.path))
	return firstErr
}
