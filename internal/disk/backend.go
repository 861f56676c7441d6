package disk

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Backend is the storage substrate behind a Disk: one logical byte arena
// holding every page image. The device layer owns all page-level
// semantics (allocation, run transfers, I/O accounting); a backend only
// decides where the arena bytes live — on the Go heap, mapped onto a real
// file, or layered copy-on-write over a shared base. Swapping backends
// therefore can never change the counters the paper measures, only the
// persistence and sharing of the bytes.
//
// Backends are not safe for concurrent use; the owning Disk serializes
// access under its own mutex. Offsets and lengths are bytes; reads and
// writes must stay inside [0, Len()).
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
	// Flush persists the arena contents (no-op for memory backends).
	Flush() error
	// Close flushes and releases the backend.
	Close() error
}

// flatBackend is implemented by backends whose whole arena is one
// contiguous byte slice. The Disk uses it as a fast path: page transfers
// become direct memmoves against the slice instead of interface calls.
// The slice stays valid until the next Grow or Close.
type flatBackend interface {
	Bytes() []byte
}

// StablePager is the optional zero-copy read capability. A backend
// implements it when it can hand out a read-only slice of arena bytes
// whose memory stays valid — and keeps reflecting the backend's content
// for that range as written through this backend — until the backend is
// reset (COW views) or closed. Growth must not invalidate stable slices:
// backends that move their arena on Grow either retain the old memory
// (mmap'ed arenas retire superseded mappings until Close) or rely on the
// garbage collector (heap arenas), in which case a stale slice still
// holds the bytes it was handed, exactly as a private copy would.
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
// moves it. Only the heap arena implements it — a file arena already
// grows in extents and a COW overlay has nothing to move. The hint never
// changes Len or any byte read.
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

func (b *memBackend) Bytes() []byte { return b.arena }
func (b *memBackend) Len() int      { return len(b.arena) }

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

func (b *memBackend) Flush() error { return nil }
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

// BackendKind enumerates the built-in backend implementations.
type BackendKind int

const (
	// MemArena keeps page images on the Go heap (default).
	MemArena BackendKind = iota
	// FileArena maps the page arena onto a scratch file, grown in
	// page-aligned extents and removed on Close.
	FileArena
	// COWArena layers a private page-granular overlay over a shared,
	// immutable base arena (copy-on-write). With a nil base it degenerates
	// to a fully private overlay arena.
	COWArena
)

// String implements fmt.Stringer.
func (k BackendKind) String() string {
	switch k {
	case MemArena:
		return "mem"
	case FileArena:
		return "file"
	case COWArena:
		return "cow"
	default:
		return fmt.Sprintf("BackendKind(%d)", int(k))
	}
}

// BackendSpec describes how to construct a backend. Specs (not Backend
// instances) are what flows through configuration: every engine opens its
// own arena from the shared spec, so independent engines never collide.
// The one deliberately shared piece of state is Base: COW engines opened
// from the same spec all read through the same immutable base arena.
type BackendSpec struct {
	Kind BackendKind
	// Dir is the directory for arena files (FileArena only; "" means the
	// OS temp directory). Arena files are scratch: uniquely named,
	// removed on Close, never reopened — what persists a database is a
	// .codb snapshot.
	Dir string
	// Base is the shared immutable base arena for COWArena backends.
	// nil means an empty base: every written page lives in the overlay,
	// which makes "cow" usable as a drop-in backend even without a
	// shared base (the CLI/env spec syntax).
	Base *BaseArena
}

// ParseBackendSpec parses the CLI/config syntax:
//
//	""            -> memory arena (default)
//	"mem"         -> memory arena
//	"file"        -> file arenas in the OS temp directory
//	"file:DIR"    -> file arenas in DIR
//	"cow"         -> copy-on-write arenas (shared base where the harness
//	                 provides one, private overlays everywhere)
func ParseBackendSpec(s string) (BackendSpec, error) {
	switch {
	case s == "" || s == "mem":
		return BackendSpec{Kind: MemArena}, nil
	case s == "file":
		return BackendSpec{Kind: FileArena}, nil
	case strings.HasPrefix(s, "file:"):
		return BackendSpec{Kind: FileArena, Dir: s[len("file:"):]}, nil
	case s == "cow":
		return BackendSpec{Kind: COWArena}, nil
	default:
		return BackendSpec{}, fmt.Errorf("disk: unknown backend spec %q (want mem, file, file:DIR or cow)", s)
	}
}

// String renders the spec back in ParseBackendSpec syntax.
func (s BackendSpec) String() string {
	switch s.Kind {
	case FileArena:
		if s.Dir != "" {
			return "file:" + s.Dir
		}
		return "file"
	case COWArena:
		return "cow"
	default:
		return "mem"
	}
}

// Open constructs a fresh backend per the spec, for a device with the
// given page size (the COW overlay granularity; 0 means DefaultPageSize).
// FileArena specs create a uniquely named arena file, so one spec can
// open arbitrarily many independent engines;
// COWArena specs with a Base share that base across every engine opened
// from the spec.
func (s BackendSpec) Open(pageSize int) (Backend, error) {
	switch s.Kind {
	case MemArena:
		return NewMemBackend(), nil
	case FileArena:
		dir := s.Dir
		if dir == "" {
			dir = os.TempDir()
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("disk: backend dir: %w", err)
		}
		f, err := os.CreateTemp(dir, "arena-*.pages")
		if err != nil {
			return nil, fmt.Errorf("disk: create arena file: %w", err)
		}
		path := f.Name()
		f.Close()
		return OpenFileBackend(path)
	case COWArena:
		return NewCOWBackend(s.Base, pageSize), nil
	default:
		return nil, fmt.Errorf("disk: unknown backend kind %d", int(s.Kind))
	}
}

// DefaultExtentBytes is the arena-file growth granularity: 1 MiB, i.e.
// 512 DASDBS pages per extent. Growing in extents keeps the
// remap/truncate frequency O(log n) in the database size.
const DefaultExtentBytes = 1 << 20

// roundUp rounds n up to a multiple of quantum.
func roundUp(n, quantum int) int {
	return (n + quantum - 1) / quantum * quantum
}

// removeArena deletes a closed arena file.
func removeArena(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("disk: remove arena %s: %w", filepath.Base(path), err)
	}
	return nil
}
