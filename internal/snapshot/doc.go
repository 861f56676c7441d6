// Package snapshot implements the .codb container, the one on-disk form
// of a device arena: per stored physical layout, the raw arena (every
// page image) plus the directory metadata, and the set of storage models
// it holds. Opening a snapshot yields a loaded base without regenerating
// or reloading the benchmark extension — and because the arena and
// directories are bit-identical to the originals, every query measured on
// a view of it produces exactly the counters of a fresh load (pinned by
// the round-trip tests).
//
// Layout, version 3 (all integers big-endian):
//
//	"CODB" | u16 version | u32 genLen | gen JSON | u16 entryCount
//	repeated per entry:
//	  u8  kinds     the models the entry holds: bit k for store.Kind k
//	  u32 pageSize
//	  u32 numPages
//	  u64 seq       WAL watermark the arena includes (0 outside checkpoints)
//	  u64 gen       base generation as numbered by the writing process
//	  u32 metaLen
//	  meta          metaLen bytes
//	  arena         numPages*pageSize bytes
//
// A physical layout is stored once. Write folds a model into an earlier
// entry when both are of one layout (store.Kind.Layout: DSM and
// DASDBS-DSM, NSM and NSM+index) and their page size, page count, meta
// blob and arena are equal byte for byte — five freshly loaded models are
// three entries, 26.3 MiB at paper scale instead of 43.0 — and a model
// whose bytes differ (one updated after its load) keeps an entry of its
// own. Every reader (parse) and Write hold the entry table to four rules:
// each entry holds a non-empty set of known models (ErrKindSet), of one
// physical layout (ErrMixedLayout); no model is held by two entries
// (ErrDuplicateKind); all entries have one page size (ErrPageSize). Stat
// lists every model in file order, and a model opens from the entry that
// holds it.
//
// The generator configuration in the header is provenance: a consumer
// that asks for a particular extension (cotables -db, cobench -db)
// verifies it and refuses a mismatch instead of silently measuring a
// different database; writers with none to give store the zero config.
//
// A checkpoint is a single-model snapshot with a watermark: the durable
// commit path keeps each model in DIR/<slug>.codb (WriteSidecar, a
// one-model entry), seeds (cogen -wal) are the same file at seq 0, and
// shard segments (Extract) copy entries verbatim, watermark included,
// with each entry's set narrowed to the models asked for. All of them are
// written by one entry writer through one atomic temp-sync-rename and
// read by one parser, so any of them opens with Stat, OpenBase or
// Extract.
//
// # Format versioning
//
// Two version numbers evolve independently. The container version
// (Version, the u16 after the magic) covers the layout above. Readers
// accept version 3 and version 2, whose entry header is the same except
// that its first byte is one kind — so snapshots and checkpoints written
// before entries held sets still open, and recover — and reject any other
// version, version 1 included, with ErrFormat naming it rather than
// guessing. Each model's meta blob additionally carries its own version
// written by the model's SnapshotMeta serializer, so a storage model can
// evolve its directory metadata without a container bump — RestoreMeta
// rejects blobs it does not understand with a typed error. Snapshots are
// regenerable artifacts (cogen -db); there is no in-place migration, a
// mismatched snapshot is simply regenerated.
//
// A snapshot is opened one way: OpenBase lifts a model's arena once into
// an immutable store.SharedBase from which any number of copy-on-write
// views open without further I/O or copying (one view, for a caller that
// wants a single database). OpenBases does it for several models and maps
// each entry once: the models one entry holds share its base, one owner
// reference each (store.SharedBase.Retain), and such a base is read-only —
// a writer opens its models one by one. Opening is zero-copy where the
// platform allows: the arena region of the .codb file is mmap'ed read-only
// in place (disk.MapBaseArena), so the base starts with near-zero resident
// memory and views fault pages in on demand; OpenBaseHeap forces the
// portable heap copy. A mapped base pins the snapshot's inode until
// released — rewriting the file in place while a base is open is a caller
// bug, atomically replacing it via Write (or a checkpoint) is safe.
package snapshot
