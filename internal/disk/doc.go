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
// # Page geometry
//
// The device has one page size, DefaultPageSize: the paper's DASDBS page
// of 2048 bytes, SysHeaderSize of them a system header (§5.1). It is a
// constant, decided here once: no device, backend, base arena, page pool
// or sizer stores a page size or takes one, and the layers above read it
// from this package (Disk.PageSize and Disk.EffectivePageSize return the
// constant). Two page sizes can therefore never meet, and nothing checks
// that they agree. The one page-size check of the program is where a page
// size comes from outside it: the .codb reader (internal/snapshot) refuses
// an entry of any other size.
//
// # Backend contract
//
// Where the arena bytes live is a pluggable Backend. A backend implements
// offset-based byte I/O (Len, Grow, ReadAt, WriteAt, Close) over one
// logical arena — the device's one write path — and may additionally lend
// out stable page memory for reads and dumps (StablePager). Two
// implementations exist, and an engine's role picks one:
//
//   - mem (NewMemBackend): the loader arena, memory of its own outside
//     the Go heap — what a loader builds into and what Detach hands to a
//     base as its floor, and what a private database runs on;
//   - cow (NewCOWBackend): a page-granular private overlay over a shared
//     immutable BaseArena (copy-on-write) — what every measured or served
//     view runs on, opened empty and landed on its base by RebaseView.
//
// Neither persists anything: what persists an arena is a .codb snapshot
// (internal/snapshot), the one on-disk form, which a BaseArena maps back
// in as its floor.
//
// The contract every backend must honour: Grow never shrinks and fresh
// bytes read as zero; ReadAt overwrites the whole destination buffer
// (callers pass recycled memory); neither ReadAt nor WriteAt retains the
// caller's slice; Close releases only resources the backend itself owns.
//
// # Reservation and hand-off
//
// A loader arena is not on the Go heap: on Linux it is an anonymous
// private mapping (arena_mmap.go; elsewhere a heap slice with the same
// lifetime contract, arena_portable.go), so the garbage collector neither
// scans it nor counts it toward its heap goal, and it goes back to the
// operating system the moment its owner frees it rather than after a
// collection and the scavenger. Its owner is explicit — the device until
// Close or Detach, then the floor of the base Detach built, until that
// floor's last release. A PagePool's chunks are the same kind of memory,
// owned by the pool until its Drain (see "Page buffer ownership").
// LiveArenaBytes is the one ledger of both: the bytes of every arena and
// chunk live in the process, the memory the Go runtime's statistics do
// not see. No finalizer backs it up: an engine never closed, a base never
// released, or a pool never drained keeps its memory for the life of the
// process.
//
// A bulk load knows how many pages it will allocate before it allocates
// the first: the storage models run a sizing pass and call Disk.Reserve.
// Reservation is an optional backend capability. The loader arena
// implements it — the arena is allocated once, at the size the load ends
// with, and prefaulted, since the load writes all of it — and the COW
// overlay ignores it (it has nothing to move). Growth past a reservation,
// or without one, falls back to doubling the capacity: that is what
// relocating updates after a load and anything a sizing pass did not
// count run on, and it keeps an under-estimate a matter of cost, never of
// correctness. Such a move retires the old arena instead of freeing it —
// a frame may still borrow its pages (see "Stable pages") — until Close
// or Detach. ArenaStatsOf reports how an arena was allocated; a reserved
// load ends with one allocation and no spare capacity.
//
// Disk.Detach is the other half of building a base in place: it hands the
// arena itself — the page images where the load wrote them — to a new
// BaseArena as its floor, frees the retired arenas, and leaves the device
// dead (ErrDetached on every later use). A loader's arena becomes the
// floor of a base this way without being copied; from then on the
// immutability rules below apply to it, and the floor frees it at its
// last release. Disk.CopyBase is the copying counterpart for a device
// that lives on (store.Freeze): the same kind of arena, filled with a
// copy of the images.
//
// # Copy-on-write semantics
//
// A COW backend layers a private overlay over a shared BaseArena. Reads
// fall through to the base until the first write to a page materializes a
// private copy (a full-page write skips even that copy); growth past the
// base is free until written. A base generation is immutable by
// construction — no code path writes a floor after NewBaseArena, or a
// page table or image a referenced generation holds — so any number of
// engines can read through one generation concurrently without
// synchronization, and closing a view releases only its overlay. This is
// what lets the parallel experiment matrix share one loaded extension
// across workers:
// per-worker memory is proportional to the pages a worker dirties, not to
// the database size, while the counters stay bit-identical to a private
// loader arena by construction (the device layer above is unchanged).
//
// # Base generations
//
// A BaseArena is one generation of a shared base: an immutable floor —
// the loader arena, heap slice or .codb mapping the base was built over —
// plus a page table of the pages committed over the floor since (a root
// of leaves of sixteen images each; nil, leaf or image, means "read the
// floor", a page past the visible floor with no entry reads as zero, and
// the generation's own length is authoritative across growth and
// shrinkage).
// That table has the same shape as a view's private overlay and is read
// by the same lookup, so a page resolves through view table → generation
// table → floor in a fixed number of steps. Promote derives generation
// n+1 by copying the root and the leaves a dirty page falls in — every
// other leaf is shared with generation n — and installing private copies
// of the dirty images: a commit costs its dirty pages, not the arena, and
// because the table is path-copied rather than chained to its parent, a
// lookup after a thousand commits costs what it cost after one — there is
// no depth and nothing to flatten or tune. WriteTo streams a generation for a
// checkpoint, floor runs as single writes, without flattening it in
// memory; Bytes flattens a promoted generation and is for inspection
// only. Several bases can stand on one floor: Branch opens another base
// over a never-promoted generation's floor — generation 0 of a branch
// with its own numbering, page tables and lineage — so the storage
// models of one stored layout map its bytes once and commit alone.
//
// Every generation counts its own references, and the floor counts them
// all, over every branch: construction (NewBaseArena, MapBaseArena) hands the creator one,
// Promote hands the next generation's owner one, every COW backend takes
// one on the generation it reads (dropped by its Close, or swapped by a
// rebase). The floor storage is freed exactly when the floor's count
// reaches zero. The contract callers rely on: a floor can never be
// released under a live view or a live generation (each reference pins
// it, even after every other handle is gone), and releasing an
// already-dead floor is reported as an error instead of corrupting a
// neighbour.
//
// The counting is what frees a floor. Only a heap floor (NewBaseArena:
// a snapshot read into the heap, tests) could lean on the garbage
// collector; a loader arena (Detach, CopyBase) and a file mapping
// (MapBaseArena, used for .codb snapshots) cannot — each is unmapped
// explicitly at the last release, and unmapping while a view could still
// read it would be a crash, not a leak. The file mapping is what makes a
// `-db x.codb` run memory-cheap: the snapshot's arena region is mapped
// PROT_READ/MAP_PRIVATE, resident only in the pages views actually
// touch, immutable by page protection on top of immutable by
// construction — and it stays the floor across commits, which move only
// the pages they dirtied into their branch's page pool.
//
// Backends change only the storage substrate — allocation, run transfers
// and the I/O counters are identical across backends by construction.
//
// # Committed page images
//
// A committed page image — like a table leaf or root — is read only
// through a generation whose table holds it, by someone holding a
// reference on that generation, and it is reused once no generation
// holding a reference can read it. An image that generation b's promote
// installed and generation d's replaced (or dropped, shrinking) is read
// by exactly the generations [b, d) of its branch: d's promote retires
// it to the branch's lineage with that interval; when a generation's last
// reference goes, every retired image no live generation in its interval
// reads goes back to the branch's page pool, and later promotes of the
// branch copy dirty pages into those instead of fresh memory. Branches never
// share an image, leaf or root — a branch starts from a generation with
// none — so a lineage per branch sees every reader of what it holds. A
// view parked on an old generation pins only what its own generation
// reads — what the garbage collector would keep for it — and nothing
// retired after it. The lineage is a line: a promote of a generation that
// is not its branch's newest panics, as retaining a drained generation
// does.
//
// The pool is a PagePool the branch owns, made at its first promote, so
// its images are off the Go heap, cut from the pool's chunks and counted
// in LiveArenaBytes. Since that memory is freed explicitly, every
// image must come back, and one more rule sees to it: what the newest
// generation's table holds was never replaced, so it was never retired,
// but once the newest drains no promote can follow (a promote needs the
// newest), and its images retire as if one had replaced them all — those
// no older live generation reads are freed at once (a base closed before
// a view parked on an older generation), the rest with the generations
// reading them. At the branch's last release every image is back and the
// pool is drained, its chunks unmapped; a page still out makes Drain
// refuse, the chunk stays mapped and the error is Release's — a leak the
// ledger shows. Under `-tags poison` an image reads 0xDB from the moment
// it is freed and again when it is reused, and a drained chunk is
// quarantined, so an image read after its branch's last release faults.
//
// # Stable pages (zero-copy reads)
//
// Backends whose page images live at stable addresses additionally
// implement StablePager: StablePage(off, n) returns a read-only slice
// aliasing the backend's own memory for a range inside one page. The
// slice is a live view, not a snapshot — it stays valid (and observes
// later writes through the device) until the backend is reset or closed;
// growth never invalidates it. The mem backend serves stable pages from
// its arena: a move keeps the retired arena mapped, with the bytes the
// slice was handed, until Close or Detach, and the buffer pool has
// dropped every borrow by then. A slice used after that — or after the
// last release of the base a Detach built — is a bug a release build does
// not catch: its memory is back with the operating system, whose next
// mapping of the same size often lands at the same address, so the slice
// may read another arena's or chunk's bytes instead of faulting. Under
// `-tags poison` the range is quarantined rather than unmapped — its pages
// dropped, the address made inaccessible and never reused
// (the ledger's quarantined line) — so such a read faults. Readers are kept
// safe by reference counts and release order alone: the buffer pool drops
// every borrow before its device closes, and a floor is unmapped only at
// its last reference's release. The cow backend serves a materialized
// page from its private overlay image and a clean page from the shared
// base generation itself (a committed image or the floor), which is what
// lets every view of one frozen base read the same physical bytes.
// Fault-injecting wrappers deliberately withhold the capability on pages
// their schedule targets, so faults cannot be bypassed through an alias.
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
// request without being torn down. Dropped overlay page images go to the
// device's free list and are reused by the next writes, so a recycled
// view's overlay materializes without allocating.
//
// Disk.RebaseView is ResetView onto another generation: after the reset
// the backend's base reference is swapped (new floor reference taken
// before the old one is dropped), so a view a commit left behind lands on
// the new generation with its engine, frame buffers and overlay images
// intact. The order is load-bearing — Discard the buffer pool, then
// ResetView, then the swap: borrowed frames alias pages of the old
// generation and of the overlay, and both go away. A fresh view is an
// empty engine rebased onto the current generation, so there is one way a
// view lands on a generation.
//
// # Ownership
//
// An engine — device, buffer pool, the heaps and long-object stores over
// them, the model's scratch — belongs to one goroutine at a time and takes
// no lock: plain counters, plain free lists, results lent out of scratch.
// It changes hands only through something that synchronises (a ViewPool
// lease, a fanout worker taking its cell, a channel). What engines share
// keeps its own synchronisation: disk.PagePool (mutex: engines of one
// suite take and give pages concurrently), a BaseArena's reference counts
// (atomic: views open and close concurrently; floor and page tables are
// immutable) and its branch's lineage (mutex: promotes and drains),
// store.SharedBase (lock around the current generation, publish lock per
// commit, a Once per half of a directory), an experiments suite's cache
// of bases and extensions (mutex, one build per key), faultdisk.Injector
// (atomic: one schedule under every device it wraps), complexobj.ViewPool. The proof is `go test -race ./...` —
// buffer.TestEngineHandOver is the rule itself — and CI's race-built
// server soak: a second goroutine in an engine is a reported race. The
// detector sees only Go memory, so accesses to a loader arena, a file
// mapping or a pool's page (cut from a chunk) go unchecked — committed
// images included, which are pages of their branch's pool: only the
// reference counts keep their readers safe, and only the poison build
// checks their lifetime. Engine state, the pools' lists, page tables and
// the pages of a device with no pool remain covered.
//
// # Page buffer ownership
//
// Committed images are base memory, owned by their branch's lineage under
// the rule in "Committed page images" and cut from the branch's own
// PagePool, which no engine is given: an engine's pages and a branch's
// images never meet in one pool. A promote copies an engine's dirty page
// into an image of the branch's; the engine keeps its page.
// A page buffer that is neither arena nor base memory — a frame the buffer
// pool owns (a promoted or copied page), a COW overlay image — has one
// owner at a time, in this order: the engine (a live frame or image, or
// its device's one free list, which frames and images share: NewPage,
// FreePage, one owner, no lock), then the PagePool its device was given
// (SetPagePool). The list asks the pool only when it is empty. A pool's
// pages are not on the Go heap: it cuts them, each capped at its page,
// from chunks of chunkPages pages it maps like a loader arena (allocArena;
// a heap buffer if the mapping fails), so a page belongs to the pool for
// good and Drain, when the pool's owner is done, gives the chunks back to
// the operating system — only once every page cut from them is back, since
// a page still out would read unmapped memory; while one is out Drain
// unmaps nothing and reports how many are. A device with no pool (served
// views, the complexobj facade, loaders outside a suite) is decided once,
// in its list: it makes its buffers on the heap and drops what it would
// give back, for the garbage collector. One rule gives buffers back: the
// engine closed clean — flushed, no frame pinned — and its buffer pool was
// emptied before its overlay, because a resident frame may borrow an
// overlay image (buffer.Pool.Release, through ReleasePages, is that
// order). An engine that failed gives nothing back, and its pages keep its
// pool's chunks mapped. Nothing built over a pool's engine keeps one of its
// pages: a base's floor is a loader arena (Detach) or a copy into one
// (CopyBase), and a promote copies into images of its branch's pool. Under
// `-tags poison` a page reads 0xDB from the moment it is given to the list
// or the pool, and again when a pool hands it out or a list makes it, so a
// frame's Data kept past its eviction reads 0xDB.
//
// The same clean close hands on the engine's scaffolding as one scaffold,
// so the next engine opened over the pool builds none: the buffer pool's
// part — its frame index, Frame structs and clock ring, one opaque value
// package buffer defines, which this package only stores (ReleasePages,
// TakeScaffold) — the COW overlay's page table and leaves, and the list's
// array. Each is reset before reuse, so nothing of the earlier engine is
// visible: the taker clears the index, Frames are zeroed as they are
// recycled, and the pool takes the images straight from the table's
// leaves, emptying them, before it keeps the table; a device without an
// overlay carries the table it took on to its release. Page buffers still travel only as
// pages. PagePool.Drain drops the scaffolds a pool holds and unmaps its
// chunks when its owner is done.
package disk
