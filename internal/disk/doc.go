// Package disk simulates the page-addressed secondary storage device of the
// paper's DASDBS installation. The paper's evaluation metric is the number
// of physical page I/Os and the number of I/O calls needed to transfer them
// (Equation 1: C = d1*X_calls + d2*X_pages); this device counts exactly
// those two quantities while holding page images in memory.
//
// One I/O call transfers a contiguous run of pages, mirroring the DASDBS
// behaviour described in §5.2 of the paper: the root/header page of a large
// object, its additional header pages, and its data pages are each fetched
// with separate calls, while a flush writes contiguous dirty pages together.
//
// Page images live in a single logical arena rather than one heap object
// per page, so a run transfer touches adjacent memory. ReadRunShared, the
// one read path, lends out the backend's own page memory where it is
// stable and copies into caller-provided buffers (the buffer pool passes
// recycled frame memory) where it is not, so the steady-state read path
// performs no allocation at all.
//
// # Backend contract
//
// Where the arena bytes live is a pluggable Backend. A backend implements
// offset-based byte I/O (Len, Grow, ReadAt, WriteAt, Flush, Close) over
// one logical arena; backends whose arena is a single contiguous slice
// additionally expose it, and the device then bypasses the interface with
// direct memmoves. Three implementations exist:
//
//   - mem: the arena on the Go heap (the original in-memory device);
//   - file: the arena mapped onto a scratch file, grown in extents and
//     removed on Close — never reopened: what persists an arena is a
//     .codb snapshot (internal/snapshot), the one on-disk form;
//   - cow: a page-granular private overlay over a shared immutable
//     BaseArena (copy-on-write).
//
// The contract every backend must honour: Grow never shrinks and fresh
// bytes read as zero; ReadAt overwrites the whole destination buffer
// (callers pass recycled memory); neither ReadAt nor WriteAt retains the
// caller's slice; Close releases only resources the backend itself owns.
//
// # Copy-on-write semantics
//
// A COW backend layers a private overlay over a shared BaseArena. Reads
// fall through to the base until the first write to a page materializes a
// private copy (a full-page write skips even that copy); growth past the
// base is free until written. The base is immutable by construction —
// no code path writes it after NewBaseArena — so any number of engines
// can read through one base concurrently without synchronization, and
// closing a view releases only its overlay. This is what lets the
// parallel experiment matrix share one loaded extension across workers:
// per-worker memory is proportional to the pages a worker dirties, not to
// the database size, while the counters stay bit-identical to the other
// backends by construction (the device layer above is unchanged).
//
// # Base lifecycle
//
// A BaseArena outlives any single engine, so its storage is reference
// counted rather than tied to an owner: construction (NewBaseArena,
// MapBaseArena) hands the creator one reference, every COW backend
// opened over the base takes another, Close on a view and Release on a
// handle each drop one, and the storage is freed exactly when the count
// reaches zero. The contract callers rely on: a base can never be
// released under a live view (the view's reference pins it, even after
// every other handle is gone), Bytes stays valid while at least one
// reference is held, and releasing an already-dead base is reported as an
// error instead of corrupting a neighbour.
//
// The counting pays off for the two base variants differently. A heap
// base (NewBaseArena) could in principle lean on the garbage collector;
// an mmap-backed base (MapBaseArena, used for .codb snapshots)
// cannot — the file mapping must be unmapped explicitly, and unmapping
// while a view could still read it would be a crash, not a leak. The
// mapped variant is what makes `-db x.codb -backend cow` memory-cheap:
// the snapshot's arena region is mapped PROT_READ/MAP_PRIVATE, resident
// only in the pages views actually touch, immutable by page protection on
// top of immutable by construction.
//
// Backends change only the storage substrate — allocation, run transfers
// and the I/O counters are identical across backends by construction.
//
// # Stable pages (zero-copy reads)
//
// Backends whose page images live at stable addresses additionally
// implement StablePager: StablePage(off, n) returns a read-only slice
// aliasing the backend's own memory for a range inside one page. The
// slice is a live view, not a snapshot — it stays valid (and observes
// later writes through the device) until the backend is reset or closed;
// growth never moves existing pages. The mem and file backends serve
// stable pages from their arenas; the cow backend serves a materialized
// page from its private overlay image and a clean page from the shared
// base arena itself, which is what lets every view of one frozen base
// read the same physical bytes. Fault-injecting wrappers deliberately
// withhold the capability on pages their schedule targets, so faults
// cannot be bypassed through an alias.
//
// Disk.ReadRunShared is the counted entry point: for each page of a run
// it hands out a stable alias where the backend offers one and falls
// back to a caller-provided copy buffer where it does not, incrementing
// ReadCalls by one and PagesRead by the run length either way — callers
// above (the buffer pool's borrowed frames) inherit zero-copy reads
// without any change to the paper-visible counters.
//
// Disk.ResetView is the COW-only recycling hook: it drops every overlay
// page and truncates growth past the base, restoring the device to the
// pristine shared state so a request-scoped view can serve its next
// request without being torn down. Dropped overlay page images go to a
// free list inside the backend and are reused by the next writes, so a
// recycled view's overlay materializes without allocating.
package disk
