// Package buffer implements the database cache of the simulated DASDBS
// installation: a bounded pool of page frames with fix/unfix (pin) semantics.
//
// The paper's measurements hinge on three behaviours of this component:
//
//   - buffer fixes are counted (Table 6 uses them as a CPU-load indicator),
//   - pages are read from disk only on a fix miss, with contiguous multi-page
//     requests served by a single I/O call (Table 5),
//   - dirty pages are written back either when the query finishes
//     ("database disconnect") or when the pool overflows, which is why
//     writes batch many pages per call (§5.2) and why query 2b/3b degrade
//     once the 1200-page cache overflows (§5.4, Figure 6).
//
// The implementation is built for throughput, because the experiment
// harness funnels every simulated tuple access through this type:
//
//   - residency lookup is a dense slice indexed by PageID (page IDs are
//     allocated contiguously by the device), not a hash map;
//   - evicted frames return their page buffer to the device's free list,
//     which the device's COW overlay draws its images from too, and their
//     Frame struct to the pool's, so steady-state misses allocate nothing
//     and the cache never holds more page memory than its capacity; a
//     Frame the free list cannot supply is cut from a slab of min(64,
//     capacity) Frames the pool holds, so a fresh pool allocates its
//     frames a slab at a time, not one per page it loads;
//   - a pool whose device hands it a scaffold (disk.Disk.TakeScaffold)
//     starts from the index, Frames and clock ring of the pool released
//     before it over the same page pool, the index cleared and sized once
//     to the device's page count, so engines opened one after another
//     allocate their scaffolding once between them;
//   - dirty frames sit on an intrusive doubly-linked dirty list, so flushes
//     and overflow write bursts only visit the dirty subset instead of
//     scanning (and re-sorting) every resident frame.
//
// None of this changes the paper-visible accounting: fixes, hits, I/O calls
// and page transfers are counted exactly as before.
//
// # Pin and ownership rules
//
// A Frame (and its Data slice) is valid only while the caller holds a pin
// on it: Fix/FixRun pin, Unfix releases, and an unpinned frame may be
// evicted at any time with its memory recycled for another page. Callers
// therefore must not retain Frame pointers or Data slices across an
// Unfix. The slice FixRun returns its frames in is pool scratch as well:
// it is valid until the next FixRun on the pool, which under the
// Ownership rule below is the caller's own next call (under the poison
// build tag that call nil-fills the old slice and abandons it, so a kept
// result reads nil frames). The dirty flag travels with Unfix (the
// caller declares the modification when releasing the pin); dirty frames
// are written back on flush or overflow, never while pinned by the
// eviction path. Drop discards resident frames without write-back — the
// cache-coherence hook for page recycling — and refuses pinned pages.
// Discard empties the whole pool without write-back (Reset's flushing
// counterpart) for view recycling, where the device underneath is about
// to be reset to a pristine shared base; evicted frame structs and page
// buffers land on free lists either way, so a recycled engine's next
// request allocates nothing on the buffer hot path.
//
// # Borrowed frames and the write contract
//
// Over a backend with the disk.StablePager capability, a fix miss does
// not copy the page at all: the frame's Data aliases backend memory
// directly (a base-arena page or a materialized overlay image), and the
// frame is marked borrowed. Over any other backend the frame holds a
// private copy as before. Both cases are reached through the same
// Fix/FixRun calls and count the same fixes, misses, I/O calls and page
// transfers — zero-copy is invisible to the paper's accounting.
//
// Borrowing shifts one obligation onto writers: a borrowed Data slice is
// shared, possibly with every sibling view of the same frozen base, so it
// must never be written through. The pool enforces copy-on-first-write at
// the frame level:
//
//   - MarkDirty(f) promotes a borrowed frame — Data is replaced by a
//     private copy of the page — and marks it dirty. On an already-owned
//     frame it is idempotent and merely marks dirty. Writers call it
//     BEFORE the first mutation and re-derive any pointers into f.Data
//     afterwards, since promotion replaces the slice.
//   - Unfix(id, dirty=true) on a still-borrowed frame is refused with
//     ErrBorrowedWrite (the pin is still released). This turns a writer
//     that skipped MarkDirty into a loud test failure instead of silent
//     corruption of the shared base.
//
// Eviction, Drop, Discard and view recycling simply forget a borrowed
// slice (it belongs to the backend, not the device's free list);
// the store layer drops all borrows via Discard before resetting the
// device underneath, so no frame outlives the memory it aliases.
//
// # Ownership
//
// An engine — device, buffer pool, the heaps and long-object stores over
// them, the model's scratch — belongs to one goroutine at a time and takes
// no lock: plain counters, plain free lists, results lent out of scratch.
// It changes hands only through something that synchronises (a ViewPool
// lease, a fanout worker taking its cell, a channel). What engines share
// keeps its own synchronisation: the page pool under devices (mutex:
// engines of one suite take and give pages concurrently), a BaseArena
// floor's reference count (atomic: views open and close concurrently;
// floor and page tables are immutable), store.SharedBase (lock around the
// current generation, a Once per half of a directory), an experiments
// suite's cache of bases and extensions (mutex, one build per key),
// faultdisk.Injector (atomic: one schedule under every device it wraps),
// complexobj.ViewPool. The proof is `go test -race ./...` —
// buffer.TestEngineHandOver is the rule itself — and CI's race-built
// server soak: a second goroutine in an engine is a reported race.
package buffer
