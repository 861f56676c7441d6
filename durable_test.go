package complexobj

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/snapshot"
)

// TestOpenPersistentRoundTrip pins the persistent-database lifecycle
// (the test keeps the name of the OpenPersistent call it used to drive):
// a single-model database kept across opens is WriteSnapshot on the way
// out and OpenSnapshot on the way in — it reopens with its full contents,
// a cold cache and zeroed counters, and saving over the same path again
// carries later updates forward.
func TestOpenPersistentRoundTrip(t *testing.T) {
	cfg := cobench.DefaultConfig().WithN(60)
	stations, err := cobench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range AllModels() {
		t.Run(kind.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db.codb")
			opts := Options{BufferPages: 128}
			renameAndSave := func(db *DB, name string) {
				t.Helper()
				if err := db.UpdateObject(7, func(s *cobench.Station) error {
					s.Name = name
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if err := WriteSnapshot(path, cfg, db); err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
			db, err := Open(kind, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Load(stations); err != nil {
				t.Fatal(err)
			}
			renameAndSave(db, "persisted")

			for _, want := range []string{"persisted", "persisted again"} {
				re, err := OpenSnapshot(path, kind, opts)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				if re.NumObjects() != len(stations) {
					t.Fatalf("reopened with %d objects, want %d", re.NumObjects(), len(stations))
				}
				if s := re.Stats(); s.Calls() != 0 || s.BufferFixes != 0 {
					t.Fatalf("reopened counters not zero: %+v", s)
				}
				got, err := re.FetchByKey(stations[7].Key)
				if err != nil {
					t.Fatal(err)
				}
				if got.Name != want {
					t.Fatalf("update lost across reopen: %q, want %q", got.Name, want)
				}
				renameAndSave(re, "persisted again")
			}

			// A conflicting page size is a configuration error, not silent
			// re-creation.
			if _, err := OpenSnapshot(path, kind, Options{PageSize: 4096}); err == nil {
				t.Fatal("conflicting page size accepted")
			}
		})
	}
}

// seedSnapshot writes a .codb seed for one model and returns its path
// plus the generated extension.
func seedSnapshot(t *testing.T, kind ModelKind, n int) (string, []*cobench.Station) {
	t.Helper()
	cfg := cobench.DefaultConfig().WithN(n)
	stations, err := cobench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(kind, Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Load(stations); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seed.codb")
	if err := WriteSnapshot(path, cfg, db); err != nil {
		t.Fatal(err)
	}
	return path, stations
}

// TestCommitLogLifecycle drives the durable serving lifecycle end to end:
// seed snapshot → commit log → durable commits → restart replays them →
// checkpoint compacts the log → restart from the checkpoint alone.
func TestCommitLogLifecycle(t *testing.T) {
	const kind = DASDBSNSM
	snap, stations := seedSnapshot(t, kind, 40)
	walDir := t.TempDir()

	clog, err := OpenCommitLog(walDir)
	if err != nil {
		t.Fatal(err)
	}
	base, err := clog.OpenBase(kind, snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clog.OpenBase(kind, snap); err == nil {
		t.Fatal("duplicate model registration accepted")
	}

	// Commits before Recover must fail: the log is not armed yet.
	early, err := base.NewView(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := early.sv.UpdateRoots([]int32{3}, func(i int32, r *cobench.RootRecord) {
		r.Name = "too early"
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := early.Commit(clog); !errors.Is(err, ErrNotRecovered) {
		t.Fatalf("commit before Recover: %v, want ErrNotRecovered", err)
	}
	early.Close()

	if n, err := clog.Recover(); err != nil || n != 0 {
		t.Fatalf("fresh recover: %d, %v", n, err)
	}
	if _, err := clog.Recover(); err == nil {
		t.Fatal("double Recover accepted")
	}

	commit := func(name string) CommitInfo {
		t.Helper()
		v, err := base.NewView(Options{BufferPages: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		if err := v.sv.UpdateRoots([]int32{5, 9}, func(i int32, r *cobench.RootRecord) {
			r.Name = name
		}); err != nil {
			t.Fatal(err)
		}
		info, err := v.Commit(clog)
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	if info := commit("first"); info.Seq != 1 || info.Gen != 1 || info.Pages == 0 {
		t.Fatalf("first commit: %+v", info)
	}
	if info := commit("second"); info.Seq != 2 || info.Gen != 2 {
		t.Fatalf("second commit: %+v", info)
	}
	s := clog.Stats()
	if s.Commits != 2 || s.LastSeq != 2 || s.SizeBytes == 0 || s.Syncs == 0 {
		t.Fatalf("stats after two commits: %+v", s)
	}
	if err := clog.Close(); err != nil {
		t.Fatal(err)
	}
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash" restart: no checkpoint ran, so the base re-seeds from the
	// snapshot and both commits replay from the log.
	clog2, err := OpenCommitLog(walDir)
	if err != nil {
		t.Fatal(err)
	}
	base2, err := clog2.OpenBase(kind, snap)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := clog2.Recover(); err != nil || n != 2 {
		t.Fatalf("recover replayed %d, %v; want 2", n, err)
	}
	if got := clog2.Stats(); got.Recovered != 2 || got.LastSeq != 2 {
		t.Fatalf("post-recovery stats: %+v", got)
	}
	if base2.Gen() != 2 {
		t.Fatalf("recovered base at generation %d", base2.Gen())
	}
	v, err := base2.NewView(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.sv.FetchByKey(stations[9].Key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "second" {
		t.Fatalf("recovered view reads %q, want the last committed name", got.Name)
	}
	v.Close()

	// Checkpoint: files written, log truncated, sequence preserved.
	if err := clog2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s := clog2.Stats(); s.SizeBytes != 0 || s.Checkpoints != 1 {
		t.Fatalf("post-checkpoint stats: %+v", s)
	}
	clog2.Close()
	base2.Close()

	// Restart from the checkpoint alone: no seed snapshot needed, nothing
	// to replay, and the next commit continues the sequence.
	clog3, err := OpenCommitLog(walDir)
	if err != nil {
		t.Fatal(err)
	}
	defer clog3.Close()
	base3, err := clog3.OpenBase(kind, "")
	if err != nil {
		t.Fatalf("open from checkpoint: %v", err)
	}
	defer base3.Close()
	if n, err := clog3.Recover(); err != nil || n != 0 {
		t.Fatalf("recover after checkpoint: %d, %v", n, err)
	}
	v3, err := base3.NewView(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := v3.sv.FetchByKey(stations[5].Key); err != nil || got.Name != "second" {
		t.Fatalf("checkpointed state reads %q, %v", got.Name, err)
	}
	if err := v3.sv.UpdateRoots([]int32{1}, func(i int32, r *cobench.RootRecord) {
		r.Name = "after checkpoint"
	}); err != nil {
		t.Fatal(err)
	}
	info, err := v3.Commit(clog3)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 3 {
		t.Fatalf("sequence after checkpoint restart: %d, want 3", info.Seq)
	}
	v3.Close()
}

// TestCheckpointIsASnapshot: the file CommitLog.Checkpoint writes is an
// ordinary single-model .codb, so every snapshot consumer opens it — Stat,
// OpenBase, OpenSnapshot, Extract — and reads the committed state. A
// checkpoint streamed from a many-times-promoted generation (floor runs
// and committed pages interleaved) is byte-identical to the arena a flat
// whole-copy promotion would have built.
func TestCheckpointIsASnapshot(t *testing.T) {
	const kind = DASDBSDSM
	snap, stations := seedSnapshot(t, kind, 40)
	dir := t.TempDir()
	clog, err := OpenCommitLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer clog.Close()
	base, err := clog.OpenBase(kind, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if _, err := clog.Recover(); err != nil {
		t.Fatal(err)
	}
	v, err := base.NewView(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.sv.UpdateRoots([]int32{5}, func(_ int32, r *cobench.RootRecord) {
		r.Name = "checkpointed"
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Commit(clog); err != nil {
		t.Fatal(err)
	}
	v.Close()
	if err := clog.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, snapshot.Slug(kind.internal())+".codb")
	info, err := StatSnapshot(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Models) != 1 || info.Models[0] != kind || info.Gen != (cobench.Config{}) {
		t.Fatalf("checkpoint describes itself as %+v", info)
	}
	if sc, err := snapshot.StatSidecar(dir, kind.internal()); err != nil || sc.Seq != 1 || sc.Gen != 1 {
		t.Fatalf("checkpoint watermark %+v, %v; want seq 1 gen 1", sc, err)
	}
	// Extract keeps the watermark: the copy is another directory's
	// checkpoint of that model, which is what a durable handoff would ship.
	moved := t.TempDir()
	seg := filepath.Join(moved, filepath.Base(ckpt))
	if err := ExtractSnapshot(ckpt, seg, []ModelKind{kind}); err != nil {
		t.Fatal(err)
	}
	if sc, err := snapshot.StatSidecar(moved, kind.internal()); err != nil || sc.Seq != 1 {
		t.Fatalf("extracted checkpoint watermark %+v, %v; want seq 1", sc, err)
	}
	if _, err := snapshot.StatSidecar(t.TempDir(), kind.internal()); !os.IsNotExist(err) {
		t.Fatalf("stat of a directory without a checkpoint: %v, want not-exist", err)
	}
	for _, path := range []string{ckpt, seg} {
		db, err := OpenSnapshot(path, kind, Options{BufferPages: 128})
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		got, err := db.FetchByKey(stations[5].Key)
		if err != nil || got.Name != "checkpointed" {
			t.Fatalf("%s reads %q, %v", filepath.Base(path), got.Name, err)
		}
		db.Close()
	}

	// Forty more commits through one rebased view, mirrored into a flat
	// oracle the way the whole-arena promotion applied them.
	_, _, _, arena := base.base.SnapshotState()
	flat := append([]byte(nil), arena.Bytes()...)
	arena.Release()
	ps := base.base.PageSize()
	pv, err := base.NewView(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer pv.Close()
	last := ""
	for round := 0; round < 40; round++ {
		last = fmt.Sprintf("promoted %02d times and counting", round)
		if err := pv.sv.UpdateRoots([]int32{int32(round % 7), 5}, func(_ int32, r *cobench.RootRecord) {
			r.Name = last
		}); err != nil {
			t.Fatal(err)
		}
		if err := pv.sv.Flush(); err != nil {
			t.Fatal(err)
		}
		dev := pv.sv.Engine().Dev
		next := make([]byte, dev.NumPages()*ps)
		copy(next, flat)
		disk.OverlayPages(dev.Backend(), func(pg int, img []byte) { copy(next[pg*ps:(pg+1)*ps], img) })
		flat = next
		if info, err := pv.Commit(clog); err != nil || info.Pages == 0 {
			t.Fatalf("round %d: commit %+v, %v", round, info, err)
		}
		if err := pv.sv.Rebase(); err != nil {
			t.Fatal(err)
		}
	}
	if base.DeltaPages() == 0 || base.DeltaPages() >= base.NumPages() {
		t.Fatalf("generation %d holds %d committed pages of %d; want a sparse table over the floor", base.Gen(), base.DeltaPages(), base.NumPages())
	}
	if err := clog.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenBase(ckpt, kind)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, arena = reopened.base.SnapshotState()
	if !bytes.Equal(arena.Bytes(), flat) {
		t.Error("checkpoint of a many-times-promoted generation differs from the flat oracle")
	}
	arena.Release()
	reopened.Close()
	db, err := OpenSnapshot(ckpt, kind, Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	got, err := db.FetchByKey(stations[5].Key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != last {
		t.Fatalf("second checkpoint reads %q, want %q", got.Name, last)
	}
}

// TestCommitLogMaybeCheckpoint pins the size-triggered compaction valve.
func TestCommitLogMaybeCheckpoint(t *testing.T) {
	snap, _ := seedSnapshot(t, NSM, 30)
	clog, err := OpenCommitLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer clog.Close()
	base, err := clog.OpenBase(NSM, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if _, err := clog.Recover(); err != nil {
		t.Fatal(err)
	}
	v, err := base.NewView(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.sv.UpdateRoots([]int32{2}, func(i int32, r *cobench.RootRecord) {
		r.Name = "grow the log"
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Commit(clog); err != nil {
		t.Fatal(err)
	}
	if ran, err := clog.MaybeCheckpoint(1 << 30); err != nil || ran {
		t.Fatalf("huge threshold checkpointed: %v, %v", ran, err)
	}
	if ran, err := clog.MaybeCheckpoint(0); err != nil || ran {
		t.Fatalf("disabled threshold checkpointed: %v, %v", ran, err)
	}
	if ran, err := clog.MaybeCheckpoint(1); err != nil || !ran {
		t.Fatalf("tiny threshold did not checkpoint: %v, %v", ran, err)
	}
	if s := clog.Stats(); s.SizeBytes != 0 || s.Checkpoints != 1 {
		t.Fatalf("stats after MaybeCheckpoint: %+v", s)
	}
}

// TestViewPoolRebasesStaleViews: once a commit promotes the base, views
// of the superseded generation — the committer's own on release, an idle
// sibling on its next acquisition — are rebased onto the new generation
// in place (same engine, nothing destroyed), acquisitions read the new
// generation, and a view still in flight keeps reading the generation it
// was acquired on until it is released.
func TestViewPoolRebasesStaleViews(t *testing.T) {
	db := smallDB(t, DASDBSNSM)
	defer db.Close()
	base, err := db.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	pool, err := NewViewPool(base, Options{BufferPages: 128}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Hold three views of generation 0: one parked idle, one kept in
	// flight across the commit, one committing.
	a, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	inflight, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	engA, engB := a.sv.Engine(), b.sv.Engine()
	before, err := inflight.sv.FetchByAddress(4)
	if err != nil {
		t.Fatal(err)
	}
	before = before.Clone() // lent: the view's next read overwrites it
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Commit through b, promoting the base to generation 1.
	if err := b.sv.UpdateRoots([]int32{4}, func(i int32, r *cobench.RootRecord) {
		r.Name = "promoted"
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if s := pool.Stats(); s.Stale != 1 || s.Idle != 2 || s.Destroyed != 0 {
		t.Fatalf("after the committer's release: %+v, want Stale=1 Idle=2 Destroyed=0", s)
	}

	// The in-flight view drains on generation 0.
	if got, err := inflight.sv.FetchByAddress(4); err != nil || inflight.Gen() != 0 || got.Name != before.Name {
		t.Fatalf("in-flight view moved under its reader: gen %d, %q (was %q), %v", inflight.Gen(), got.Name, before.Name, err)
	}

	// Both pooled views come back on generation 1 with their engines: the
	// committer's (rebased at release) first, then the idle sibling
	// (rebased at acquisition).
	c, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if c.sv.Engine() != engB || d.sv.Engine() != engA {
		t.Fatal("stale views were rebuilt, not rebased: engine identity changed")
	}
	for _, v := range []*View{c, d} {
		if v.Gen() != 1 {
			t.Fatalf("acquired view at generation %d, want 1", v.Gen())
		}
		if s := v.Stats(); s != (Stats{}) {
			t.Fatalf("rebased view starts with counters %+v", s)
		}
		if got, err := v.sv.FetchByAddress(4); err != nil || got.Name != "promoted" {
			t.Fatalf("stale pool served old state: %q, %v", got.Name, err)
		}
	}
	if err := inflight.Close(); err != nil {
		t.Fatal(err)
	}
	s := pool.Stats()
	if s.Stale != 3 || s.Reused != 2 || s.Created != 3 || s.Destroyed != 0 || s.Idle != 1 {
		t.Fatalf("pool counters: %+v, want Stale=3 Reused=2 Created=3 Destroyed=0 Idle=1", s)
	}
}
