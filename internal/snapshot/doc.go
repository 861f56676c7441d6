// Package snapshot implements the .codb container, the one on-disk form
// of a device arena: per storage model, the raw arena (every page image)
// plus the model's directory metadata. Opening a snapshot yields a
// loaded base without regenerating or reloading the benchmark extension
// — and because the arena and directories are bit-identical to the
// originals, every query measured on a view of it produces exactly the
// counters of a fresh load (pinned by the round-trip tests).
//
// Layout, version 2 (all integers big-endian):
//
//	"CODB" | u16 version | u32 genLen | gen JSON | u16 modelCount
//	repeated per model:
//	  u8  kind
//	  u32 pageSize
//	  u32 numPages
//	  u64 seq       WAL watermark the arena includes (0 outside checkpoints)
//	  u64 gen       base generation as numbered by the writing process
//	  u32 metaLen
//	  meta          metaLen bytes
//	  arena         numPages*pageSize bytes
//
// The generator configuration in the header is provenance: a consumer
// that asks for a particular extension (cotables -db, cobench -db)
// verifies it and refuses a mismatch instead of silently measuring a
// different database; writers with none to give store the zero config.
//
// A checkpoint is a single-model snapshot with a watermark: the durable
// commit path keeps each model in DIR/<slug>.codb (WriteSidecar), seeds
// (cogen -wal) are the same file at seq 0, and shard segments (Extract)
// copy entries verbatim, watermark included. All of them are written by
// one entry writer through one atomic temp-sync-rename and read by one
// parser, so any of them opens with Stat, OpenBase or Extract.
//
// # Format versioning
//
// Two version numbers evolve independently. The container version
// (Version, the u16 after the magic) covers the layout above; readers
// reject any mismatch — version-1 files included — with ErrFormat naming
// the version rather than guessing. Each model's meta blob additionally
// carries its own version written by the model's SnapshotMeta serializer,
// so a storage model can evolve its directory metadata without a
// container bump — RestoreMeta rejects blobs it does not understand with
// a typed error. Snapshots are regenerable artifacts (cogen -db); there
// is no in-place migration, a mismatched snapshot is simply regenerated.
//
// A snapshot is opened one way: OpenBase lifts a model's arena once into
// an immutable store.SharedBase from which any number of copy-on-write
// views open without further I/O or copying (one view, for a caller that
// wants a single database). OpenBase is zero-copy where the platform
// allows: the arena region of the .codb file is mmap'ed read-only in
// place (disk.MapBaseArena), so the base starts with near-zero resident
// memory and views fault pages in on demand; OpenBaseHeap forces the
// portable heap copy. A mapped base pins the snapshot's inode until
// released — rewriting the file in place while a base is open is a caller
// bug, atomically replacing it via Write (or a checkpoint) is safe.
package snapshot
