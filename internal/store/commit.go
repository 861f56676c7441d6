package store

import (
	"fmt"

	"complexobj/internal/disk"
	"complexobj/internal/wal"
)

// CommitResult describes one promoted commit.
type CommitResult struct {
	// Gen is the base generation the commit produced (unchanged when the
	// view had nothing to commit).
	Gen uint64
	// Seq is the WAL sequence that made the commit durable; 0 when the
	// commit ran without a log (volatile promotion) or was empty.
	Seq uint64
	// Pages is the number of dirty pages folded into the new generation.
	Pages int
	// Bytes is the page-image payload size (Pages × page size).
	Bytes int64
}

// Commit makes the view's mutations the next base generation: the buffer
// pool is flushed into the copy-on-write overlay, the dirty page set is
// appended to the write-ahead log together with a commit marker (log nil
// skips durability — a volatile promotion), and once the log sync
// acknowledged the batch the overlay is folded into the shared base via
// Promote. A commit pays for its dirty pages only: the directory metadata
// is encoded, logged and copied only when the view changed it (an object
// or key moved, heap or long-object state moved); otherwise the marker's
// blob is empty — "the directory as it was" — and the new generation
// keeps its predecessor's. The write-ahead ordering is
// the crash guarantee: the promotion is pure memory, so a crash after the
// log sync replays the batch onto the last checkpoint and lands on this
// same generation, and a crash before it recovers the previous one —
// nothing in between is observable.
//
// A view with no mutations commits to nothing: no log traffic, no
// promotion, Gen reports the view's own generation. After a non-empty
// commit the view still reads its original generation plus its own
// overlay — content-identical to the new generation — but recycling it
// would reset to the superseded base state, so pools rebase it instead
// (Gen stays behind SharedBase.Gen until Rebase).
//
// Commits to one base serialize on its publish lock, which spans the
// generation check, the log append and sync, and the promote: a view
// whose generation another commit has already moved past fails with
// ErrStaleBase before a byte of its batch is logged, so a refused commit
// never replays. Commits to different bases still share the log's sync
// waves (group commit).
//
// Commit moves no paper counter. The pool flush writes through the
// simulated device exactly like the update query's own end-of-run Flush
// (which the workload has already issued by measurement end, so the pool
// is clean and the flush a no-op on the benchmark path); log append and
// promotion never touch the device.
func (v *View) Commit(log *wal.Log) (CommitResult, error) {
	if err := v.singleUse("commit"); err != nil {
		return CommitResult{}, err
	}
	if err := v.eng.writable("Commit"); err != nil {
		return CommitResult{}, err
	}
	eng := v.eng
	if err := eng.Pool.FlushAll(); err != nil {
		return CommitResult{}, fmt.Errorf("store: commit %s: flush: %w", v.base.kind, err)
	}
	// The dirty set is gathered in the view's own map and record slice:
	// neither the log (which encodes the records into its append buffer) nor
	// Promote (which copies the images) keeps what it is passed, and the
	// images — the overlay's own pages — are dropped from both on return.
	if v.patches == nil {
		v.patches = make(map[int][]byte)
	}
	patches, recs := v.patches, v.recs[:0] // recs: for the log, in OverlayPages' ascending page order
	defer func() {
		clear(patches)
		clear(recs)
		v.recs = recs[:0]
	}()
	if ok := disk.OverlayPages(eng.Dev.Backend(), func(pg int, img []byte) {
		patches[pg] = img
		if log != nil {
			recs = append(recs, wal.PageRecord{Model: byte(v.base.kind), Page: uint32(pg), Image: img})
		}
	}); !ok {
		return CommitResult{}, fmt.Errorf("store: commit %s: view engine is not copy-on-write", v.base.kind)
	}
	numPages := eng.Dev.NumPages()
	if len(patches) == 0 && numPages == v.st.numPages {
		return CommitResult{Gen: v.st.gen}, nil
	}
	var meta []byte // empty: the directory stands
	if v.Model.dirChanged() {
		var err error
		if meta, err = v.Model.SnapshotMeta(); err != nil {
			return CommitResult{}, fmt.Errorf("store: commit %s: meta: %w", v.base.kind, err)
		}
	}
	res := CommitResult{Pages: len(patches), Bytes: int64(len(patches)) * int64(v.base.pageSize)}
	b := v.base
	b.publish.Lock()
	defer b.publish.Unlock()
	if err := b.promotable(v.st.gen); err != nil {
		return CommitResult{}, fmt.Errorf("store: commit %s: %w", v.base.kind, err)
	}
	if log != nil {
		seq, err := log.Commit(recs, wal.CommitRecord{
			Model:    byte(v.base.kind),
			NumPages: uint32(numPages),
			Meta:     meta,
		})
		if err != nil {
			return CommitResult{}, fmt.Errorf("store: commit %s: %w", v.base.kind, err)
		}
		res.Seq = seq
	}
	gen, err := b.Promote(v.st.gen, numPages, meta, patches)
	if err != nil {
		return CommitResult{}, fmt.Errorf("store: commit %s: %w", v.base.kind, err)
	}
	res.Gen = gen
	return res, nil
}
