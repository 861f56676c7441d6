// Package store implements the complex-object storage models of the
// paper's §3 over the simulated DASDBS engine. A model is a layout — the
// containers an object's records live in and how its in-memory directory
// (key index, per-object addresses, container state) addresses them —
// plus the access strategy the paper says differs:
//
//   - DSM (§3.1): one long-object store, each station one clustered object
//     behind an in-memory address; "complex objects are stored as a whole
//     on as few disk pages as possible", and a query transfers every page
//     of each object it touches.
//   - DASDBS-DSM (§3.2): the same layout read through the object header,
//     retrieving "only those pages ... that are actually used in a query";
//     root updates are change-attribute operations, written through.
//   - NSM (§3.3): four heaps of flat tuples joined on root and parent keys,
//     each object's tuples listed by RID. "With NSM we have no
//     identifiers": value and address queries scan and join. NSM+index
//     reaches the tuples through a free in-memory index instead, so "a page
//     is read from disk then and only then if a tuple it stores is
//     requested".
//   - DASDBS-NSM (§3.4): four long-object stores of nested tuples, one tuple
//     per relation per object, and a transformation table of four
//     addresses per object that "immediately shows the addresses of all the
//     tuples that together store an object".
//
// All models speak the same Model interface so the benchmark driver and
// the experiment harness treat them uniformly.
//
// # Assembly
//
// Stored records become Stations in one place, the assembler
// (assemble.go). Every model feeds it the same four kinds of record —
// root, platform (with its own key), connection (with its parent's key),
// sightseeing — from wherever its layout keeps them: the components of a
// direct object, the rows of four flat relations, the subtuples of four
// nested ones. The assembler reads each through an nf2.Record and copies
// what it keeps, because nothing it is handed outlives the call: a heap
// record is a view into a page frame, valid only inside the View/Scan
// callback, and the components of a longobj read alias the store's
// scratch block, valid until the next read on that longobj.Store — every
// model decodes before it reads again, and reads (longobj.Store.Read's
// want) only the components it decodes.
//
// Every read lends what it returns. The Stations of FetchByAddress,
// FetchByKey and a ScanAll callback, the RootRecord.Name of Navigate /
// ReadRoot / UpdateRoots' mutate and Navigate's child list are decoded —
// in full, every check on every record — into scratch the view's model
// keeps (one Station grown in place, one string arena rewound per object,
// one child list), and are valid until the view's next call — a ScanAll
// callback's only until the callback returns, the Model contract, because
// NSM builds a scan's objects from relation-ordered rows in scratch lent
// to that scan alone (ScanStages, below: every object's root, platform and
// connection rows, one object's sightseeings at a time in object order,
// all of them at worst) — the contract heap.View,
// longobj.Store.Read, Pool.FixRun and Engine.IntScratch already have. The
// reason is measured: no product caller keeps a read object (the runner
// counts it, the server returns counters), yet materialising each as a
// caller-owned Station was 88 % of the bytes query 1c allocated and about
// four of the mallocs of a served query-1a request; lent, a warmed-up view
// reads without allocating at all. A caller that does keep one copies it —
// Station.Clone, strings.Clone, slices.Clone — which is what the public
// complexobj.DB facade does, once, so a library user only ever sees owned
// values. Only the Station UpdateObject hands its mutate is owned, because
// mutate may grow it: a fresh Station with exactly-sized Platforms and
// Seeings, one Connection array its platforms share, and strings cut from
// a packed backing (nf2.Strings) that is never written again. The scratch
// belongs to the per-view model, never to a generation's shared directory,
// so two views of one base never share it (a scan staging passes from
// scan to scan, never held by two at once); the poison build tag overwrites
// it before every reuse, so a value kept past its lifetime reads 0xDB /
// zero / -1 (an IntScratch result -1, a FixRun result nil frames).
//
// Where the whole object is in hand before decoding (direct and DASDBS-NSM
// objects) its strings are measured first (TupleType.StringBytes) and the
// backing is exactly the object's own; the NSM paths meet their tuples one
// page view at a time and cut strings from fixed 8 KiB chunks instead. Navigation and value selections project: they read the keys and
// child references they need with Record.Int and assemble nothing they do
// not return.
//
// # Loading
//
// The paper treats loading the extension as dictionary-level work outside
// the counted I/O; here it is the dominant cost of every sweep point, so a
// load is built in place. Load starts with a sizing pass: it
// walks the extension, counts the pages the inserts will allocate and
// reserves them on the device in one piece (disk.Disk.Reserve). No size
// is written down anywhere and nothing is built to be measured — STR
// attributes are fixed-width, so a tuple's size is its fan-outs times
// nf2's arithmetic on its schema (TupleType.FlatSize / NestedSize), and
// page counts come from heap.Sizer and longobj.Sizer, which share their
// arithmetic with the insert paths — and when the pass misses something
// (the B+-trees of a private counted-index load) the device's doubling
// fallback takes over. The inserts then write each station's records straight from
// the cobench structs into one reused buffer per model with an
// nf2.Appender (one function per record kind lists its attributes, once
// for all models), never through an nf2.Tuple tree — that encoder is the
// tests' oracle —
// and longobj lays large objects out in reused page images, so the arena
// is what a load allocates. The same buffer takes the root record an
// update re-encodes: heap and longobj copy what they are handed.
//
// LoadBase(kind, opts, stations) is the way to build a SharedBase from an
// extension: it loads into a loader arena — memory of its own outside the
// Go heap, an anonymous mapping on Linux — and then hands that arena over,
// disk.Disk.Detach returning a disk.BaseArena whose floor owns it, as the
// base's floor, and its directory tables as the base's. Nothing is copied
// or encoded; the loader never leaves the function,
// its engine is dead once the arena has a new owner (disk.ErrDetached),
// and the arena goes back to the operating system at the base's last
// release (disk.LiveArenaBytes counts what is live). Freeze is for a
// model that lives on: it copies the arena, sized exactly, into an arena
// allocated the same way (disk.Disk.CopyBase), so the base never sees the
// model's later writes.
//
// Kind.Layout names the physical layout a kind is stored in. DSM and
// DASDBS-DSM are one layout read with two access strategies (§3.1/§3.2),
// and NSM and NSM+index are another (§3.3: the same four relations, the
// index a zero-cost in-memory map over them): the same arena, the same
// directory metadata, only the read and update strategy differs. So a base
// of a layout serves views of each of its kinds — SharedBase.NewViewAs,
// the view carries its own kind — and the experiment harness keys
// its base cache by layout and loads three layouts per sweep point, not
// five. The .codb container stores such kinds once when their bytes are
// equal, and a server, read-only or durable, maps that entry once: each
// of its kinds gets a SharedBase of its own branched off the one floor
// (disk.BaseArena.Branch), with its own generations, page table and
// recycling lineage, so each kind commits alone and a commit through one
// never changes what the other serves. Owners counts the bases on a
// floor.
//
// An Engine (device + buffer pool) backs each model, and its backend
// follows from its role: NewEngine and New open a loader arena — a
// loader's (LoadBase), a private database's, freed by Engine.Close — and a view gets a copy-on-write
// overlay that lands on its base (NewViewAs). Where the page bytes live
// never changes the measured counters. A loaded model becomes an
// immutable SharedBase (LoadBase, Freeze) from which any number of
// copy-on-write views open cheaply — one loaded extension shared across
// every cell of every experiment. Engine.Close on a view releases only
// the view's private overlay; the base arena itself is reference counted
// (disk.BaseArena) and survives until its last view and its last handle
// are gone, so a SharedBase.Release never pulls a mapped snapshot out
// from under a running query.
//
// The counted-index ablation runs on such a view too. A view opened with
// Options.CountIndexIO (NSM+index only) builds its four B+-trees into its
// own overlay once it lands, past the base's pages — the page ids a
// private counted load gives them, keys and positions read from the
// attached directory — and then starts cold with zeroed counters, so it
// measures exactly what a private counted load measures. Its trees live
// only in that overlay, so it is single-use: Recycle, Rebase and Commit
// refuse it.
//
// Options.Pages names who inherits an engine's page buffers (internal/disk,
// "Page buffer ownership"): frame buffers and overlay images share one
// free list, the device's, and a clean Engine.Close hands that pool the
// list's buffers and one scaffold — frame index, frames, clock ring,
// emptied overlay table, the list's array — and the next engine opened
// with the same options (the next cell's view, the next loader) starts on
// them, reset. The owner is whoever opens engines in sequence: an
// experiments.Suite makes one pool and drains it at its Close. Served views
// get none: they are not closed between requests (Recycle keeps the list,
// which already makes a request allocation-free), and a process-wide pool
// kept the set-up loaders' pages alive while serving (+9 to +18 % peak RSS).
//
// Options.Scans does the same for the staging of NSM's ScanAll, and the
// owner is the other way round: a complexobj.ViewPool passes one to its
// views, a batch cell's view none. A pooled view lives on, and how many
// views a pool opens, and when, follows request timing; each growing its
// own staging made a served scan's bytes bimodal. Shared, the stagings
// number the most scans of the pool that ran at once. A batch view's
// staging goes with the view, as a shared one kept for the whole suite
// would raise its peak RSS (≈ +5 % measured with one process-wide set).
// A staging holds every object's root, platform and connection rows and
// strings; the sightseeing relation, the largest, is streamed: in
// physical = object order the staging holds one object's sightseeing rows
// and strings at a time, and after structural updates have moved tuples,
// the objects that completed ahead of a lower one — at worst every
// sightseeing row, as a staging of all four relations would. A ScanAll
// callback runs with no page of the scan fixed, and a write from inside
// it (UpdateRoots, UpdateObject, a view's Commit, Recycle, Rebase) is
// ErrScanInProgress on every model: a scan reads objects as it reaches
// them.
//
// View is the request-scoped execution handle built on a SharedBase: a
// copy-on-write view that is its Model (embedded; the query surface is
// Model's) and that Recycle resets to the pristine base
// between requests (overlay dropped, pool emptied without write-back,
// counters zeroed, the model re-attached to its generation's directory
// after a mutating request), reusing the engine and its free lists instead
// of rebuilding them. A recycled view is indistinguishable from a fresh one — the
// benchmark server serves every request from one and measures
// bit-identically to a batch run.
//
// A SharedBase advances through generations, and the directory metadata
// (address and RID tables, key index, heap and long-object state) is a
// value they share, in two halves: the encoded blob, and the tables — a
// model without a device — every view of it attaches to in O(1)
// (Model.attach). A directory is built from either half and derives the
// other at most once, when first asked: a loaded base's tables are its
// loader's, and it encodes the blob only for a checkpoint or the poison
// check; a base opened from a snapshot, or a committed directory, is its
// blob, and the first view decodes the tables. Nothing writes them — an
// UpdateObject that moves an object or its key copies the model's tables
// first, heaps and long-object stores keep their small state privately;
// the poison build tag re-encodes them at every Rebase and every Recycle
// that re-attaches, and panics unless they still are the blob — and
// Model.dirChanged says whether a view's directory may have left its
// generation's. A key selects one object: an UpdateObject onto a key
// another object holds is ErrDuplicateKey, refused before anything is
// written, and a blob that repeats a key does not restore (ErrRestore).
// View.Commit checks its generation, logs its dirty pages, then
// SharedBase.Promote swaps in generation n+1 — all three under the base's
// publish lock, so a stale view is refused before it logs — at the cost
// the paper's own argument about writes allows (§5.3: pay per dirty page,
// not per something larger): a promote copies the page table's root, the
// dirty pages' leaves and images — PromotedBytes counts exactly those,
// into memory earlier promotes superseded once no live generation reads
// it (internal/disk, "Committed page images") — never the arena, and when
// the directory is unchanged (query 3 stamps fixed-width root fields)
// nothing encodes, logs or copies the O(objects)
// blob: the marker's blob is empty and generation n+1 keeps generation
// n's directory by reference. A changed one takes the full path, so
// checkpoints, .codb files and Meta never differ. DeltaPages is what the
// current generation holds on the heap over its floor. A commit strands
// its own view and every idle sibling on the superseded generation.
// View.Rebase is Recycle onto the current one — Discard, ResetView, swap
// the overlay's base reference to the generation captured under the base
// lock, attach to its directory — and its contract is NewView's: cold cache, zeroed counters, bit-identical measurements,
// with the engine, frame buffers and overlay images kept. NewView itself
// is an empty engine plus that same step. Views still in flight are never
// rebased: they drain on the generation they were acquired on.
//
// # Ownership
//
// An engine — device, buffer pool, the heaps and long-object stores over
// them, the model's scratch — belongs to one goroutine at a time and takes
// no lock: plain counters, plain free lists, results lent out of scratch.
// It changes hands only through something that synchronises (a ViewPool
// lease, a fanout worker taking its cell, a channel). What engines share
// keeps its own synchronisation: disk.PagePool (mutex: engines of one
// suite take and give pages concurrently), ScanStages (mutex: the views
// of one pool scan concurrently), a BaseArena's reference
// counts (atomic: views open and close concurrently; floor and page
// tables are immutable) and its floor's lineage (mutex: promotes and
// drains), store.SharedBase (lock around the current generation, publish
// lock per commit, a Once per half of a directory), an experiments
// suite's cache of bases and extensions (mutex, one build per key),
// faultdisk.Injector (atomic: one schedule under every device it
// wraps), complexobj.ViewPool. The proof is `go test -race ./...` —
// buffer.TestEngineHandOver is the rule itself — and CI's race-built
// server soak: a second goroutine in an engine is a reported race.
package store
