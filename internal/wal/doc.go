// Package wal is the write-ahead log behind the durable commit path: a
// single append-only log shared by every storage model of a serving
// process, holding checksummed, length-prefixed records — page images
// keyed by (model kind, page ID) plus commit markers carrying the
// model's directory metadata when the commit changed it — that make a
// committed base generation reconstructible after a crash.
//
// The contract, in the order a commit flows through it:
//
//   - Appending. Log.Commit encodes one batch (the dirty overlay pages
//     of a view plus its commit marker) and appends it under the append
//     lock. The append offset advances only when the whole batch hit the
//     device, so a torn or failed write is overwritten by the retry and
//     can only ever corrupt the tail past the last durable record.
//
//   - Group commit. Durability is one fsync per sync wave, not per
//     committer: concurrent Commit calls pile onto the in-flight sync,
//     and a single Device.Sync covering their offsets wakes them all.
//     Commit returns only after a sync covering the batch completed —
//     an acknowledged commit is on stable storage.
//
//   - Replay. Open scans the log sequentially, verifying each record's
//     length prefix and CRC, buffering page records and applying a batch
//     only when its commit marker is reached — so a crash between append
//     and sync can never surface a half-committed batch. The first
//     malformed record ends the scan: the log is truncated back to the
//     end of the last committed batch (torn tails from crashes mid-append
//     are dropped, and replay never proceeds past a bad checksum).
//     Replaying page images is idempotent; recovering twice lands on the
//     same generation.
//
//   - Directory metadata. A marker's blob is the model's whole directory
//     as of that commit, or empty: "as of this model's previous commit,
//     or — none in the log — its checkpoint". A checkpoint persists the
//     current blob before the log is truncated, and one that crashed in
//     between is replayed under the very log it covers, whose last full
//     blob (or none) is the one it holds: an empty marker always finds
//     its directory. Logs with a blob in every marker replay unchanged.
//
//   - Checkpointing. Reset truncates the log to its header once its
//     contents are captured by a checkpoint (one single-model .codb
//     snapshot per model, written by the complexobj facade); commit
//     sequence numbers keep increasing across resets so acknowledgment
//     accounting survives compaction.
//
//   - Versioning. A log starts with an 8-byte header, "COWL" and the
//     format version (Version), written by Open on an empty log and by
//     Reset. A log without one is version 0 and replays unchanged until
//     its next Reset; a log of an unknown version fails Open with
//     ErrFormat and is left as it was.
//
// The log talks to storage through the small Device interface.
// Production uses *os.File directly; tests drive the same code over
// in-memory devices wrapped in faultdisk torn/short-write injection and
// a kill-after-N-syncs crash hook, which is how the recovery guarantees
// are proven.
//
// Everything in this package sits outside the paper's I/O accounting:
// WAL appends, syncs and replay touch no simulated device and move no
// paper counter, exactly like snapshot writes.
package wal
