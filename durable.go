package complexobj

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"complexobj/internal/snapshot"
	"complexobj/internal/store"
	"complexobj/internal/wal"
)

// SeedCommitDir writes the databases' current state into dir as their
// checkpoint files (<slug>.codb, watermark 0), seeding a commit-log
// directory so a server can start durable serving there without a
// separate seed snapshot. The files are one container, each physical
// layout stored once, linked under every database's name, so the kinds
// of one layout open one mapping. The databases keep working afterwards
// (their dirty pages are flushed as a side effect, like WriteSnapshot).
func SeedCommitDir(dir string, dbs ...*DB) error {
	models := make([]store.Model, len(dbs))
	for i, db := range dbs {
		models[i] = db.model
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("complexobj: seed commit dir: %w", err)
	}
	if err := snapshot.Seed(dir, models...); err != nil {
		return fmt.Errorf("complexobj: seed commit dir: %w", err)
	}
	return nil
}

// ErrNotRecovered reports commits or checkpoints on a CommitLog whose
// Recover has not run yet.
var ErrNotRecovered = errors.New("complexobj: commit log not recovered; call Recover first")

// CommitLog is the durable commit path of a serving process: one shared
// write-ahead log (dir/wal.log) plus one checkpoint file per model
// (dir/<slug>.codb, a single-model snapshot carrying the log watermark),
// over the bases the process serves from. The lifecycle is
//
//	clog, _ := OpenCommitLog(dir)
//	base, _ := clog.OpenBase(kind, fallbackSnapshot) // per model
//	n, _ := clog.Recover()                           // replay after crash
//	...
//	info, _ := view.Commit(clog)                     // durable commits
//	clog.Checkpoint()                                // compact the log
//
// Recover replays every committed batch in the log over the registered
// bases — the checkpoint state plus the replayed batches is exactly the
// last group-committed generation; torn tails and uncommitted batches
// are truncated by the log itself. Commits and checkpoints may run
// concurrently (checkpoints exclude commits for their duration), and so
// may commits: each base serializes its own, like View.Commit says.
//
// Close does not checkpoint: a cleanly shut down process replays its log
// on the next start, which keeps the recovery path continuously
// exercised rather than saved for disasters. WAL and checkpoint I/O sit
// entirely outside the paper counters.
type CommitLog struct {
	dir  string
	file *os.File

	mu        sync.Mutex // registration, recovery, stats
	log       *wal.Log   // nil until Recover
	bases     map[ModelKind]*Base
	seqFloor  uint64 // max watermark across registered checkpoints
	recovered int64  // batches replayed by Recover

	// ckpt excludes commits while a checkpoint captures the bases and
	// truncates the log — a commit landing between a checkpoint write and
	// the truncation would otherwise be lost.
	ckpt        sync.RWMutex
	buf         *bufio.Writer // every checkpoint's one write buffer; guarded by ckpt
	checkpoints atomic.Int64
}

// WALFileName is the log's file name inside its directory.
const WALFileName = "wal.log"

// OpenCommitLog opens (creating if needed) the durable commit state in
// dir. Register the served bases with OpenBase, then call Recover.
func OpenCommitLog(dir string) (*CommitLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("complexobj: wal dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, WALFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("complexobj: open wal: %w", err)
	}
	return &CommitLog{dir: dir, file: f, bases: make(map[ModelKind]*Base), buf: snapshot.NewWriteBuffer()}, nil
}

// Dir returns the commit log's directory.
func (c *CommitLog) Dir() string { return c.dir }

// OpenBase opens the model's durable state from the log's directory and
// registers it for recovery, commits and checkpoints: the model's
// checkpoint file when one exists, else the fallback .codb snapshot (the
// seed for a directory that has never checkpointed; empty snapshotPath
// makes a missing checkpoint an error). Must be called before Recover.
func (c *CommitLog) OpenBase(kind ModelKind, snapshotPath string) (*Base, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log != nil {
		return nil, fmt.Errorf("complexobj: OpenBase(%s) after Recover", kind)
	}
	if _, dup := c.bases[kind]; dup {
		return nil, fmt.Errorf("complexobj: model %s registered twice", kind)
	}
	sb, info, err := snapshot.OpenSidecarBase(c.dir, kind)
	switch {
	case err == nil:
		if info.Seq > c.seqFloor {
			c.seqFloor = info.Seq
		}
	case os.IsNotExist(err):
		if snapshotPath == "" {
			return nil, fmt.Errorf("complexobj: no checkpoint for %s in %s and no seed snapshot", kind, c.dir)
		}
		sb, err = snapshot.OpenBase(snapshotPath, kind)
		if err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	b := &Base{kind: kind, base: sb}
	c.bases[kind] = b
	return b, nil
}

// Recover replays every committed batch of the log over the registered
// bases and arms the log for commits. Returns the number of batches
// replayed (0 after a clean checkpoint or on a fresh directory). Replay
// is idempotent — page images are absolute, and a marker without a
// directory blob keeps the one the base holds (the checkpoint's, or the
// last one replayed) — so recovering a directory that crashed
// mid-recovery lands on the same state.
func (c *CommitLog) Recover() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log != nil {
		return 0, fmt.Errorf("complexobj: commit log recovered twice")
	}
	replayed := 0
	l, err := wal.Open(c.file, func(cm wal.CommitRecord, pages []wal.PageRecord) error {
		kind := ModelKind(cm.Model)
		b, ok := c.bases[kind]
		if !ok {
			return fmt.Errorf("log holds commits for unregistered model %s", kind)
		}
		patches := make(map[int][]byte, len(pages))
		for _, p := range pages {
			patches[int(p.Page)] = p.Image
		}
		if _, err := b.base.Promote(b.base.Gen(), int(cm.NumPages), cm.Meta, patches); err != nil {
			return err
		}
		replayed++
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("complexobj: recover %s: %w", c.dir, err)
	}
	l.SetSeq(c.seqFloor)
	c.log = l
	c.recovered = int64(replayed)
	return replayed, nil
}

// handle returns the armed log, or nil before Recover.
func (c *CommitLog) handle() *wal.Log {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log
}

// commit runs one view commit under the checkpoint shield.
func (c *CommitLog) commit(sv *store.View) (store.CommitResult, error) {
	l := c.handle()
	if l == nil {
		return store.CommitResult{}, ErrNotRecovered
	}
	c.ckpt.RLock()
	defer c.ckpt.RUnlock()
	return sv.Commit(l)
}

// Checkpoint captures every registered base into its checkpoint file —
// one atomic rename per model — and then truncates the log. A crash in
// between leaves checkpoints newer than the log's start; replayed page
// images are absolute, so recovery converges on the same committed state.
// Commits are excluded for the duration; in-flight ones finish first.
// Safe to call at any frequency — the cost is one arena write per model,
// streamed from the generation's floor and page table through the one
// 64 KiB write buffer the log keeps for every checkpoint (checkpoints
// serialize on the commit shield), so a checkpoint allocates no buffer.
func (c *CommitLog) Checkpoint() error {
	l := c.handle()
	if l == nil {
		return ErrNotRecovered
	}
	c.ckpt.Lock()
	defer c.ckpt.Unlock()
	seq := l.LastSeq()
	c.mu.Lock()
	bases := make([]*Base, 0, len(c.bases))
	for _, b := range c.bases {
		bases = append(bases, b)
	}
	c.mu.Unlock()
	for _, b := range bases {
		if err := snapshot.WriteSidecar(c.dir, b.base, seq, c.buf); err != nil {
			return fmt.Errorf("complexobj: checkpoint: %w", err)
		}
	}
	if err := l.Reset(); err != nil {
		return fmt.Errorf("complexobj: checkpoint: %w", err)
	}
	c.checkpoints.Add(1)
	return nil
}

// MaybeCheckpoint checkpoints when the log has grown to at least
// threshold bytes (threshold <= 0 never triggers). Returns whether a
// checkpoint ran. This is the serving path's compaction valve: called
// after commits, it bounds both the log size and the replay work a crash
// can inherit.
func (c *CommitLog) MaybeCheckpoint(threshold int64) (bool, error) {
	l := c.handle()
	if l == nil || threshold <= 0 || l.Size() < threshold {
		return false, nil
	}
	if err := c.Checkpoint(); err != nil {
		return false, err
	}
	return true, nil
}

// CommitLogStats is an observability snapshot of the durable commit
// path. None of these counters is a paper counter.
type CommitLogStats struct {
	// Dir is the log directory.
	Dir string
	// Stats are the write-ahead log's own counters since open, promoted:
	// Commits (acknowledged batches) over Syncs (fsync waves) is the
	// group-commit batching factor, AppendedBytes over PayloadBytes (the
	// dirty-page images inside the appends) the log's write
	// amplification; SizeBytes drops to the 8-byte header at checkpoints,
	// LastSeq is monotonic across checkpoints and restarts.
	wal.Stats
	// Checkpoints counts completed checkpoints since open.
	Checkpoints int64
	// Recovered is the number of committed batches Recover replayed.
	Recovered int64
}

// Stats returns a snapshot of the log's counters (zero before Recover).
func (c *CommitLog) Stats() CommitLogStats {
	out := CommitLogStats{Dir: c.dir, Checkpoints: c.checkpoints.Load()}
	c.mu.Lock()
	out.Recovered = c.recovered
	l := c.log
	c.mu.Unlock()
	if l != nil {
		out.Stats = l.Stats()
	}
	return out
}

// Close releases the log file handle. It deliberately does not
// checkpoint: the log stays on disk and the next open replays it, so the
// recovery path runs on every restart, clean or not. The registered
// bases are not closed (callers own their view pools and release order).
func (c *CommitLog) Close() error {
	return c.file.Close()
}

// CommitInfo describes one acknowledged commit.
type CommitInfo struct {
	// Gen is the base generation the commit produced.
	Gen uint64
	// Seq is the WAL sequence that made it durable (0 for a volatile
	// commit or a no-op).
	Seq uint64
	// Pages and Bytes size the committed dirty page set.
	Pages int
	Bytes int64
}

// Commit promotes the view's mutations into its base as the next
// generation, making them durable through the commit log first (log nil
// commits volatile — promotion without crash safety). A view with no
// mutations is a no-op. Commits to one base serialize inside it: a view
// whose generation another commit has moved past — two leases taken
// together and committed one after the other, say — fails with
// store.ErrStaleBase before its batch is logged, so a refused commit never
// replays. After a non-empty commit the view keeps reading its own
// (now superseded) generation; pools rebase it onto the new generation on
// release instead of recycling it.
//
// Commit moves no paper counter — the measured statistics of the request
// that produced the mutations are unchanged.
func (v *View) Commit(log *CommitLog) (CommitInfo, error) {
	if v.closed.Load() {
		return CommitInfo{}, fmt.Errorf("complexobj: Commit on a closed view")
	}
	var res store.CommitResult
	var err error
	if log == nil {
		res, err = v.sv.Commit(nil)
	} else {
		res, err = log.commit(v.sv)
	}
	if err != nil {
		return CommitInfo{}, err
	}
	return CommitInfo{Gen: res.Gen, Seq: res.Seq, Pages: res.Pages, Bytes: res.Bytes}, nil
}

// Gen returns the base generation the view reads (a lease stays on the
// generation it was acquired on; see Base.Gen).
func (v *View) Gen() uint64 {
	if v.closed.Load() {
		return 0
	}
	return v.sv.Gen()
}

// Gen returns the base's current generation: 0 as frozen or restored,
// +1 per promoted commit (including replayed ones).
func (b *Base) Gen() uint64 { return b.base.Gen() }
