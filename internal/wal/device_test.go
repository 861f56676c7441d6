package wal

import (
	"io"
	"sync"

	"complexobj/internal/disk"
)

// memDevice is the in-memory Device of the test battery. It tracks two
// images: data (every completed write) and synced (the state as of the
// last successful Sync) — so a test can simulate a crash at any point
// and recover from either image: synced is the pessimistic "only
// fsynced bytes survived" crash, data the optimistic "the kernel had
// already written the rest" one. The WAL contract must hold for both.
type memDevice struct {
	mu     sync.Mutex
	data   []byte
	synced []byte
	wave   int
	// syncHook, when set, runs at the start of each Sync with the wave
	// ordinal; returning an error fails the sync (the bytes do NOT
	// reach the synced image), panicking simulates a kill.
	syncHook func(wave int) error
}

func newMemDevice(initial []byte) *memDevice {
	d := &memDevice{}
	d.data = append(d.data, initial...)
	d.synced = append(d.synced, initial...)
	return d
}

func (d *memDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 || off >= int64(len(d.data)) {
		return 0, io.EOF
	}
	n := copy(p, d.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (d *memDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if need := int(off) + len(p); need > len(d.data) {
		grown := make([]byte, need)
		copy(grown, d.data)
		d.data = grown
	}
	copy(d.data[off:], p)
	return len(p), nil
}

func (d *memDevice) Sync() error {
	d.mu.Lock()
	hook := d.syncHook
	d.wave++
	wave := d.wave
	d.mu.Unlock()
	if hook != nil {
		if err := hook(wave); err != nil {
			return err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.synced = append(d.synced[:0], d.data...)
	return nil
}

func (d *memDevice) Truncate(size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for int64(len(d.data)) < size {
		d.data = append(d.data, 0)
	}
	d.data = d.data[:size]
	return nil
}

// crash returns the device as a fresh process would find it: only the
// synced image when durableOnly, the full write image otherwise.
func (d *memDevice) crash(durableOnly bool) *memDevice {
	d.mu.Lock()
	defer d.mu.Unlock()
	if durableOnly {
		return newMemDevice(d.synced)
	}
	return newMemDevice(d.data)
}

// bytes returns a copy of the full write image.
func (d *memDevice) bytes() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.data...)
}

// backendDevice adapts a disk.Backend — including one wrapped in
// faultdisk injection — to the wal.Device interface, which is how the
// log is validated against the same torn/short-write failure shapes the
// storage stack's resilience tests use. Backends never shrink, so the
// logical size is tracked here and Truncate only moves the watermark;
// stale backend bytes past it are invisible.
type backendDevice struct {
	b    disk.Backend
	size int64
}

func newBackendDevice(b disk.Backend) *backendDevice {
	return &backendDevice{b: b, size: int64(b.Len())}
}

func (d *backendDevice) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= d.size {
		return 0, io.EOF
	}
	n := len(p)
	if max := int(d.size - off); n > max {
		n = max
	}
	if err := d.b.ReadAt(p[:n], int(off)); err != nil {
		return 0, err
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (d *backendDevice) WriteAt(p []byte, off int64) (int, error) {
	if need := int(off) + len(p); need > d.b.Len() {
		if err := d.b.Grow(need); err != nil {
			return 0, err
		}
	}
	if err := d.b.WriteAt(p, int(off)); err != nil {
		return 0, err // a torn injection wrote a prefix; the log will overwrite it
	}
	if end := off + int64(len(p)); end > d.size {
		d.size = end
	}
	return len(p), nil
}

func (d *backendDevice) Sync() error { return nil }

func (d *backendDevice) Truncate(size int64) error {
	if size > d.size {
		if err := d.b.Grow(int(size)); err != nil {
			return err
		}
	}
	d.size = size
	return nil
}
