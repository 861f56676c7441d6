package disk

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Backend is the storage substrate behind a Disk: one logical byte arena
// holding every page image. The device layer owns all page-level
// semantics (allocation, run transfers, I/O accounting); a backend only
// decides where the arena bytes live — in an arena of its own, or layered
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
// a loader arena that moves on Grow keeps the old arena until it is
// closed or detached, so a stale slice still holds the bytes it was
// handed, exactly as a private copy would. A slice used after the
// backend's Close (or after the last release of the base a Detach built)
// is a bug a release build does not catch: the memory has gone back to the
// operating system, whose next mapping may reuse the address, so the slice
// can read another arena's bytes; under `-tags poison` it faults (doc.go,
// "Stable pages").
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
// moves it. Only the loader arena implements it — a COW overlay has
// nothing to move. The hint never changes Len or any byte read.
type reserver interface {
	Reserve(n int)
}

// liveArena is the one ledger of the memory this package keeps off the Go
// heap: the bytes of every arena and page-pool chunk allocArena returned
// and freeArena has not yet given back.
var liveArena atomic.Int64

// LiveArenaBytes returns the bytes this package allocated outside the Go
// heap and has not yet freed — engines' loader arenas, the ones their
// growth retired, the floors of built or loaded bases still referenced,
// and the chunks page pools cut their pages from, the committed page
// images of every branch of a base among them — which the Go runtime's
// memory statistics do not count. It is zero once every engine is closed,
// every base released and every page pool drained; a branch drains its
// own at its last release. The race detector does not see accesses to
// this memory, committed images included: only reference counts keep
// their readers safe, and only the poison build (-tags poison) checks
// their lifetime.
func LiveArenaBytes() int64 { return liveArena.Load() }

// quarantined is the ledger line of the ranges the poison build keeps
// mapped and inaccessible instead of unmapping them (unmapRange): freed
// arenas, drained page-pool chunks and released file floors, address
// space that holds no memory and is never reused. Zero in other builds.
var quarantined atomic.Int64

// memBackend keeps the arena in memory of its own, outside the Go heap
// (allocArena: an anonymous mapping on Linux): what a loader builds into
// and a private database runs on. A bulk load sizes its arena first and
// reserves it (Disk.Reserve), so the arena is allocated once at the size
// it ends with. Growth past the reservation — relocating updates after
// the load, an index the sizing pass did not count — falls back to
// doubling the capacity, which keeps the copying amortized. A move
// retires the old arena rather than freeing it: a frame may still borrow
// its pages (StablePager), so retired arenas are freed only by Close or
// Detach, when no borrow is left.
type memBackend struct {
	arena   []byte   // starts at its allocation's first byte; cap is the allocation
	retired [][]byte // arenas a move left behind, freed at Close or Detach
	moves   int      // allocations so far (diagnostics, see ArenaStatsOf)
}

// NewMemBackend returns an in-memory arena backend.
func NewMemBackend() Backend { return &memBackend{} }

func (b *memBackend) Len() int { return len(b.arena) }

// Reserve implements reserver: capacity for exactly n bytes. An
// allocation that fails leaves the arena as it was: the hint is dropped,
// and the Grow that needs the room reports the failure.
func (b *memBackend) Reserve(n int) {
	if n > cap(b.arena) {
		_ = b.move(n)
	}
}

// move allocates an arena of the given capacity, copies the bytes over
// and retires the old one.
func (b *memBackend) move(capacity int) error {
	arena, err := allocArena(capacity)
	if err != nil {
		return err
	}
	arena = arena[:copy(arena, b.arena)]
	if cap(b.arena) > 0 {
		b.retired = append(b.retired, b.arena)
	}
	b.arena = arena
	b.moves++
	return nil
}

func (b *memBackend) Grow(n int) error {
	if n <= len(b.arena) {
		return nil
	}
	if n > cap(b.arena) {
		if err := b.move(max(n, 2*cap(b.arena))); err != nil {
			return err
		}
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

// freeRetired frees the arenas earlier moves left behind.
func (b *memBackend) freeRetired() error {
	var errs []error
	for _, r := range b.retired {
		errs = append(errs, freeArena(r))
	}
	b.retired = nil
	return errors.Join(errs...)
}

// Close frees the arena and every retired one: a private engine's memory
// goes back here.
func (b *memBackend) Close() error {
	err := freeArena(b.arena)
	b.arena = nil
	return errors.Join(err, b.freeRetired())
}

// ArenaStats describes how a loader arena was allocated: its length, the
// capacity backing it, and how often it has been allocated. A reserved
// bulk load ends with Moves == 1 and Cap == Len.
type ArenaStats struct {
	Len, Cap, Moves int
}

// ArenaStatsOf reports the allocation history when b is a loader arena,
// seeing through any stack of wrapping backends (fault injection).
func ArenaStatsOf(b Backend) (ArenaStats, bool) {
	m, ok := under[*memBackend](b)
	if !ok {
		return ArenaStats{}, false
	}
	return ArenaStats{Len: len(m.arena), Cap: cap(m.arena), Moves: m.moves}, true
}

// StablePage implements StablePager over the loader arena. A Grow past
// the arena's capacity moves it, after which an outstanding slice still
// reads the retired arena with the bytes it had when handed out —
// copy-equivalent staleness, which is all the contract promises — until
// Close or Detach frees it.
func (b *memBackend) StablePage(off, n int) ([]byte, bool) {
	if off < 0 || n <= 0 || off+n > len(b.arena) {
		return nil, false
	}
	return b.arena[off : off+n : off+n], true
}
