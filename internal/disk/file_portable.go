//go:build !linux

package disk

import (
	"fmt"
	"os"
)

// fileBackend is the portable (no mmap) file-backed arena: pages live in a
// heap buffer and are written back to the arena file on Flush. It trades
// write-through coherence for portability; the Disk-level semantics
// (zeroed growth, scratch file removed on Close) are identical to the
// mmap implementation, which the shared backend tests pin.
type fileBackend struct {
	f     *os.File
	path  string
	arena []byte
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

func (b *fileBackend) Bytes() []byte { return b.arena }
func (b *fileBackend) Len() int      { return len(b.arena) }

func (b *fileBackend) Grow(n int) error {
	if n <= len(b.arena) {
		return nil
	}
	if n > cap(b.arena) {
		arena := make([]byte, n, roundUp(n, DefaultExtentBytes))
		copy(arena, b.arena)
		b.arena = arena
	} else {
		b.arena = b.arena[:n]
	}
	return nil
}

func (b *fileBackend) ReadAt(p []byte, off int) error {
	if err := checkRange(off, len(p), len(b.arena)); err != nil {
		return err
	}
	copy(p, b.arena[off:])
	return nil
}

func (b *fileBackend) WriteAt(p []byte, off int) error {
	if err := checkRange(off, len(p), len(b.arena)); err != nil {
		return err
	}
	copy(b.arena[off:], p)
	return nil
}

// StablePage implements StablePager over the heap arena, with the same
// copy-equivalent staleness across capacity growth as the memory backend.
func (b *fileBackend) StablePage(off, n int) ([]byte, bool) {
	if off < 0 || n <= 0 || off+n > len(b.arena) {
		return nil, false
	}
	return b.arena[off : off+n : off+n], true
}

func (b *fileBackend) Flush() error {
	if _, err := b.f.WriteAt(b.arena, 0); err != nil {
		return fmt.Errorf("disk: write arena file: %w", err)
	}
	if err := b.f.Truncate(int64(len(b.arena))); err != nil {
		return fmt.Errorf("disk: truncate arena file: %w", err)
	}
	return b.f.Sync()
}

// Close deletes the arena file without writing the arena back first.
func (b *fileBackend) Close() error {
	b.arena = nil
	err := b.f.Close()
	if rerr := removeArena(b.path); err == nil {
		err = rerr
	}
	return err
}
