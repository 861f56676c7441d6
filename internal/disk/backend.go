package disk

import "fmt"

// Backend is the storage substrate behind a Disk: one logical byte arena
// holding every page image. The device layer owns all page-level
// semantics (allocation, run transfers, I/O accounting); a backend only
// decides where the arena bytes live — on the Go heap, or layered
// copy-on-write over a shared base. Swapping backends therefore can never
// change the counters the paper measures, only the sharing of the bytes.
//
// Backends are not safe for concurrent use, and need not be: a backend
// belongs to one Disk, a Disk to one engine, an engine to one goroutine at
// a time (package doc, "Ownership"). Offsets and lengths are bytes; reads
// and writes must stay inside [0, Len()).
type Backend interface {
	// Len returns the current arena length in bytes.
	Len() int
	// Grow extends the arena to exactly n bytes (n never shrinks the
	// arena). Fresh bytes read as zero.
	Grow(n int) error
	// ReadAt fills p with the arena bytes at offset off. It must
	// overwrite all of p (recycled buffers are passed in), and must not
	// retain p.
	ReadAt(p []byte, off int) error
	// WriteAt stores p at offset off. It must not retain p.
	WriteAt(p []byte, off int) error
	// Close releases the backend.
	Close() error
}

// StablePager is the optional zero-copy read capability. A backend
// implements it when it can hand out a read-only slice of arena bytes
// whose memory stays valid — and keeps reflecting the backend's content
// for that range as written through this backend — until the backend is
// reset (COW views) or closed. Growth must not invalidate stable slices:
// a heap arena that moves on Grow relies on the garbage collector, so a
// stale slice still holds the bytes it was handed, exactly as a private
// copy would.
//
// StablePage returns the n bytes at offset off, or ok=false when this
// particular range cannot be shared (spans a COW page boundary, lies
// beyond materialized storage, or — for fault-injecting wrappers — must
// keep flowing through ReadAt so scheduled faults still fire). Callers
// must treat the slice as read-only; writing through it would bypass
// both write accounting and copy-on-write materialization.
type StablePager interface {
	StablePage(off, n int) ([]byte, bool)
}

// checkRange validates a [off, off+n) access against an arena of l bytes.
func checkRange(off, n, l int) error {
	if off < 0 || n < 0 || off+n > l {
		return fmt.Errorf("disk: backend access [%d,%d) outside arena of %d bytes", off, off+n, l)
	}
	return nil
}

// reserver is the optional capacity hint: Reserve(n) asks the backend to
// make room for an arena of n bytes now, so that growing up to n never
// moves it. Only the heap arena implements it — a COW overlay has nothing
// to move. The hint never changes Len or any byte read.
type reserver interface {
	Reserve(n int)
}

// memBackend keeps the arena on the Go heap: the zero-dependency default
// matching the original in-memory device. A bulk load sizes its arena
// first and reserves it (Disk.Reserve), so the arena is allocated once at
// the size it ends with. Growth past the reservation — relocating
// updates after the load, an index the sizing pass did not count — falls
// back to doubling the capacity, which keeps the copying amortized.
type memBackend struct {
	arena []byte
	moves int // reallocations so far (diagnostics, see HeapArenaStatsOf)
}

// NewMemBackend returns an in-memory arena backend.
func NewMemBackend() Backend { return &memBackend{} }

func (b *memBackend) Len() int { return len(b.arena) }

// Reserve implements reserver: capacity for exactly n bytes.
func (b *memBackend) Reserve(n int) {
	if n > cap(b.arena) {
		b.move(n)
	}
}

// move reallocates the arena with the given capacity, keeping its bytes.
func (b *memBackend) move(capacity int) {
	arena := make([]byte, len(b.arena), capacity)
	copy(arena, b.arena)
	b.arena = arena
	b.moves++
}

func (b *memBackend) Grow(n int) error {
	if n <= len(b.arena) {
		return nil
	}
	if n > cap(b.arena) {
		b.move(max(n, 2*cap(b.arena)))
	}
	// Bytes between len and cap have never been handed out (the arena
	// only grows), so they still read as zero.
	b.arena = b.arena[:n]
	return nil
}

func (b *memBackend) ReadAt(p []byte, off int) error {
	if err := checkRange(off, len(p), len(b.arena)); err != nil {
		return err
	}
	copy(p, b.arena[off:])
	return nil
}

func (b *memBackend) WriteAt(p []byte, off int) error {
	if err := checkRange(off, len(p), len(b.arena)); err != nil {
		return err
	}
	copy(b.arena[off:], p)
	return nil
}

func (b *memBackend) Close() error { b.arena = nil; return nil }

// HeapArenaStats describes how a heap arena was allocated: its length,
// the capacity backing it, and how often it has been reallocated. A
// reserved bulk load ends with Moves == 1 and Cap == Len.
type HeapArenaStats struct {
	Len, Cap, Moves int
}

// HeapArenaStatsOf reports the allocation history when b is a heap arena,
// seeing through any stack of wrapping backends (fault injection).
func HeapArenaStatsOf(b Backend) (HeapArenaStats, bool) {
	m, ok := under[*memBackend](b)
	if !ok {
		return HeapArenaStats{}, false
	}
	return HeapArenaStats{Len: len(m.arena), Cap: cap(m.arena), Moves: m.moves}, true
}

// StablePage implements StablePager over the heap arena. A Grow past the
// arena's capacity moves it, after which an outstanding slice keeps the
// old memory alive (GC-held) with the bytes it had when handed out —
// copy-equivalent staleness, which is all the contract promises.
func (b *memBackend) StablePage(off, n int) ([]byte, bool) {
	if off < 0 || n <= 0 || off+n > len(b.arena) {
		return nil, false
	}
	return b.arena[off : off+n : off+n], true
}
