package complexobj

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/snapshot"
	"complexobj/internal/wal"
)

// The crash battery below complements the torn/short fault injection in
// internal/wal (which exercises the record codec under a faulty device)
// at the facade level: every way a serving process can die — the log cut
// at an arbitrary byte, a record corrupted in place, the process killed
// right after an fsync — must recover onto exactly one of the committed
// generations, never a torn hybrid, and the log must accept the next
// commit afterwards.

// crashHistory builds a commit-log directory with a known committed
// history: commits 1..n each rename root rootIdx to "crash gen i". It
// returns the seed snapshot path, the wal bytes, the log size after each
// commit (boundaries[i] = bytes holding exactly i commits) and the
// expected root name per generation (expected[0] is the seeded name).
func crashHistory(t *testing.T, kind ModelKind, n int) (snap string, walBytes []byte, boundaries []int64, expected []string) {
	t.Helper()
	const rootIdx = 6
	snap, stations := seedSnapshot(t, kind, 24)
	walDir := t.TempDir()

	clog, err := OpenCommitLog(walDir)
	if err != nil {
		t.Fatal(err)
	}
	base, err := clog.OpenBase(kind, snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clog.Recover(); err != nil {
		t.Fatal(err)
	}
	boundaries = []int64{0}
	expected = []string{stations[rootIdx].Name}
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("crash gen %d", i)
		v, err := base.NewView(Options{BufferPages: 128})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.sv.UpdateRoots([]int32{rootIdx}, func(_ int32, r *cobench.RootRecord) {
			r.Name = name
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Commit(clog); err != nil {
			t.Fatal(err)
		}
		v.Close()
		boundaries = append(boundaries, clog.Stats().SizeBytes)
		expected = append(expected, name)
	}
	clog.Close()
	base.Close()

	walBytes, err = os.ReadFile(filepath.Join(walDir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(walBytes)) != boundaries[n] {
		t.Fatalf("wal file is %d bytes, stats recorded %d", len(walBytes), boundaries[n])
	}
	return snap, walBytes, boundaries, expected
}

// recoverFrom replays a synthesized wal image in a fresh directory and
// returns the number of replayed commits after verifying the base landed
// on that committed generation (root name matches, generation counter
// agrees) and that the log accepts a follow-up commit continuing the
// sequence.
func recoverFrom(t *testing.T, kind ModelKind, snap string, walImage []byte, expected []string) int {
	t.Helper()
	const rootIdx = 6
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, WALFileName), walImage, 0o644); err != nil {
		t.Fatal(err)
	}
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
	n, err := clog.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if n < 0 || n >= len(expected) {
		t.Fatalf("recovered %d commits, history holds %d", n, len(expected)-1)
	}
	if got := base.Gen(); got != uint64(n) {
		t.Fatalf("recovered %d commits but base is at generation %d", n, got)
	}
	v, err := base.NewView(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	got, err := v.sv.FetchByAddress(rootIdx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != expected[n] {
		t.Fatalf("recovered state reads %q, generation %d committed %q", got.Name, n, expected[n])
	}
	if err := v.sv.UpdateRoots([]int32{rootIdx}, func(_ int32, r *cobench.RootRecord) {
		r.Name = "after recovery"
	}); err != nil {
		t.Fatal(err)
	}
	info, err := v.Commit(clog)
	if err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	if info.Seq != uint64(n)+1 {
		t.Fatalf("post-recovery commit got seq %d, want %d", info.Seq, n+1)
	}
	return n
}

// TestCommitLogTruncationSweep cuts the log at a sweep of byte offsets —
// every commit boundary, its neighbours and a stride across the whole
// file — and proves each cut recovers the longest committed prefix below
// it: exactly the generations whose commit marker survived, never a
// torn in-between state.
func TestCommitLogTruncationSweep(t *testing.T) {
	const kind = DASDBSNSM
	snap, walBytes, boundaries, expected := crashHistory(t, kind, 3)
	size := int64(len(walBytes))

	cuts := make(map[int64]bool)
	for _, b := range boundaries {
		for _, c := range []int64{b - 1, b, b + 1} {
			if c >= 0 && c <= size {
				cuts[c] = true
			}
		}
	}
	stride := size / 40
	if stride < 1 {
		stride = 1
	}
	for c := int64(0); c <= size; c += stride {
		cuts[c] = true
	}

	// wantCommits: the highest boundary at or below the cut.
	wantCommits := func(cut int64) int {
		n := 0
		for i, b := range boundaries {
			if b <= cut {
				n = i
			}
		}
		return n
	}
	for cut := range cuts {
		n := recoverFrom(t, kind, snap, walBytes[:cut], expected)
		if want := wantCommits(cut); n != want {
			t.Fatalf("cut at %d: recovered %d commits, want %d (boundaries %v)", cut, n, want, boundaries)
		}
	}
}

// TestCommitLogCorruptionBattery flips a byte inside each commit's
// record region (and in each commit marker's trailing bytes): the
// checksum must reject the damaged batch and recovery must land on the
// last intact committed generation before it.
func TestCommitLogCorruptionBattery(t *testing.T) {
	const kind = NSMIndex
	snap, walBytes, boundaries, expected := crashHistory(t, kind, 3)

	for i := 1; i < len(boundaries); i++ {
		for _, off := range []int64{
			(boundaries[i-1] + boundaries[i]) / 2, // mid-batch, usually a page image
			boundaries[i] - 5,                     // inside the commit marker
		} {
			corrupt := append([]byte(nil), walBytes...)
			corrupt[off] ^= 0x40
			n := recoverFrom(t, kind, snap, corrupt, expected)
			if n != i-1 {
				t.Fatalf("flip at %d (batch %d): recovered %d commits, want %d", off, i, n, i-1)
			}
		}
	}
}

// TestCommitLogKillAfterSync crashes the committing process (a panic
// standing in for kill -9) right after the Nth WAL fsync, for several N:
// the synced-but-unacknowledged commit is allowed to survive, every
// acknowledged one must, and recovery lands on a committed generation
// either way.
func TestCommitLogKillAfterSync(t *testing.T) {
	const (
		kind    = DASDBSDSM
		rootIdx = 6
		total   = 4
	)
	snap, stations := seedSnapshot(t, kind, 24)

	for kill := 1; kill <= 3; kill++ {
		t.Run(fmt.Sprintf("kill=%d", kill), func(t *testing.T) {
			walDir := t.TempDir()
			clog, err := OpenCommitLog(walDir)
			if err != nil {
				t.Fatal(err)
			}
			base, err := clog.OpenBase(kind, snap)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := clog.Recover(); err != nil {
				t.Fatal(err)
			}
			syncs := 0
			clog.handle().SetSyncHook(func(int64) {
				syncs++
				if syncs == kill {
					panic("simulated crash after fsync")
				}
			})

			acked := 0
			crashed := false
			commitOne := func(name string) {
				defer func() {
					if recover() != nil {
						crashed = true
					}
				}()
				v, err := base.NewView(Options{BufferPages: 128})
				if err != nil {
					t.Fatal(err)
				}
				defer v.Close()
				if err := v.sv.UpdateRoots([]int32{rootIdx}, func(_ int32, r *cobench.RootRecord) {
					r.Name = name
				}); err != nil {
					t.Fatal(err)
				}
				if _, err := v.Commit(clog); err != nil {
					t.Fatal(err)
				}
				acked++
			}
			for i := 1; i <= total && !crashed; i++ {
				commitOne(fmt.Sprintf("kill gen %d", i))
			}
			if !crashed {
				t.Fatalf("sync hook never fired (%d syncs seen)", syncs)
			}
			clog.Close()
			base.Close()

			// Restart: everything acknowledged must be there; the commit
			// that died between its fsync and its acknowledgment may be.
			re, err := OpenCommitLog(walDir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			base2, err := re.OpenBase(kind, snap)
			if err != nil {
				t.Fatal(err)
			}
			defer base2.Close()
			n, err := re.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if n < acked || n > acked+1 {
				t.Fatalf("recovered %d commits with %d acknowledged", n, acked)
			}
			v, err := base2.NewView(Options{BufferPages: 128})
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			got, err := v.sv.FetchByAddress(rootIdx)
			if err != nil {
				t.Fatal(err)
			}
			want := stations[rootIdx].Name
			if n > 0 {
				want = fmt.Sprintf("kill gen %d", n)
			}
			if got.Name != want {
				t.Fatalf("recovered state reads %q, want %q (replayed %d)", got.Name, want, n)
			}
		})
	}
}

// TestCommitLogKillInsideCheckpoint stops a checkpoint in the one window
// it still has: every model's checkpoint file renamed into place, the log
// not yet truncated. (The dead log handle makes Reset fail exactly there;
// on disk that is what kill -9 leaves.) Recovery then replays the whole
// log over checkpoints that already contain it — page images are
// absolute, so it must land on the same committed state byte for byte,
// continue the sequence and accept the next commit.
func TestCommitLogKillInsideCheckpoint(t *testing.T) {
	const rootIdx = 6
	kinds := AllModels()
	dir := t.TempDir()
	dbs := make([]*DB, len(kinds))
	for i, k := range kinds {
		dbs[i] = smallDB(t, k)
		defer dbs[i].Close()
	}
	if err := SeedCommitDir(dir, dbs...); err != nil {
		t.Fatal(err)
	}

	open := func() (*CommitLog, []*Base, int) {
		t.Helper()
		clog, err := OpenCommitLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		bases := make([]*Base, len(kinds))
		for i, k := range kinds {
			if bases[i], err = clog.OpenBase(k, ""); err != nil {
				t.Fatal(err)
			}
		}
		n, err := clog.Recover()
		if err != nil {
			t.Fatal(err)
		}
		return clog, bases, n
	}
	commit := func(clog *CommitLog, b *Base, name string) CommitInfo {
		t.Helper()
		v, err := b.NewView(Options{BufferPages: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		if err := v.sv.UpdateRoots([]int32{rootIdx}, func(_ int32, r *cobench.RootRecord) {
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
	// state copies each base's committed arena and metadata.
	state := func(bases []*Base) [][2][]byte {
		out := make([][2][]byte, len(bases))
		for i, b := range bases {
			_, _, meta, arena := b.base.SnapshotState()
			out[i] = [2][]byte{append([]byte(nil), meta...), append([]byte(nil), arena.Bytes()...)}
			arena.Release()
		}
		return out
	}

	clog, bases, _ := open()
	const rounds = 2
	for r := 1; r <= rounds; r++ {
		for _, b := range bases {
			commit(clog, b, fmt.Sprintf("round %d", r))
		}
	}
	total := rounds * len(kinds)
	want := state(bases)
	walBefore, err := os.ReadFile(filepath.Join(dir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}

	clog.file.Close()
	if err := clog.Checkpoint(); err == nil {
		t.Fatal("checkpoint truncated a log whose handle is dead")
	}
	for _, b := range bases {
		b.Close()
	}

	// On disk: the full log, and one checkpoint file per model already
	// carrying the log's last sequence. Nothing else.
	walAfter, err := os.ReadFile(filepath.Join(dir, WALFileName))
	if err != nil || !bytes.Equal(walAfter, walBefore) {
		t.Fatalf("log changed by the interrupted checkpoint (%v)", err)
	}
	wantFiles := []string{WALFileName}
	for _, k := range kinds {
		sc, err := snapshot.StatSidecar(dir, k.internal())
		if err != nil {
			t.Fatal(err)
		}
		if sc.Seq != uint64(total) || sc.Gen != rounds {
			t.Fatalf("%s checkpoint at seq %d gen %d, want %d / %d", k, sc.Seq, sc.Gen, total, rounds)
		}
		wantFiles = append(wantFiles, snapshot.Slug(k.internal())+".codb")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var gotFiles []string
	for _, e := range ents {
		gotFiles = append(gotFiles, e.Name())
	}
	sort.Strings(wantFiles)
	if !reflect.DeepEqual(gotFiles, wantFiles) {
		t.Fatalf("commit dir holds %v, want %v", gotFiles, wantFiles)
	}

	re, bases2, n := open()
	defer re.Close()
	if n != total {
		t.Fatalf("recovery replayed %d batches, log holds %d", n, total)
	}
	for i, got := range state(bases2) {
		if !bytes.Equal(got[0], want[i][0]) || !bytes.Equal(got[1], want[i][1]) {
			t.Fatalf("%s: replay over the newer checkpoint diverged from the committed state", kinds[i])
		}
	}
	if info := commit(re, bases2[0], "after the crash"); info.Seq != uint64(total)+1 {
		t.Fatalf("post-recovery commit got seq %d, want %d", info.Seq, total+1)
	}
	for _, b := range bases2 {
		b.Close()
	}
}

// A commit marker carries the directory blob only when the commit changed
// the directory; an empty one means "as of the previous commit of this
// model, or the checkpoint". The three tests below pin that rule through
// crashes, a checkpoint truncation, and logs written before it existed.

// committedState copies what a base's current generation would checkpoint.
func committedState(b *Base) (meta, arena []byte) {
	_, _, m, a := b.base.SnapshotState()
	defer a.Release()
	return append([]byte(nil), m...), append([]byte(nil), a.Bytes()...)
}

// walBatch is one committed batch of a log image.
type walBatch struct {
	marker wal.CommitRecord
	pages  []wal.PageRecord
}

// walBatches replays a log image through the wal package alone.
func walBatches(t *testing.T, image []byte) []walBatch {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "wal-*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(image); err != nil {
		t.Fatal(err)
	}
	var out []walBatch
	_, err = wal.Open(f, func(cm wal.CommitRecord, pages []wal.PageRecord) error {
		b := walBatch{marker: cm}
		b.marker.Meta = append([]byte(nil), cm.Meta...)
		for _, p := range pages {
			p.Image = append([]byte(nil), p.Image...)
			b.pages = append(b.pages, p)
		}
		out = append(out, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// directoryHistory commits five generations that alternate query 3a's
// shape (root stamps: the directory stands, the marker is empty) with
// structural updates (a growing and a key-changing UpdateObject: full
// blob), and returns the log image, its size after each commit, and the
// committed directory blob and arena of every generation, 0 being the seed.
func directoryHistory(t *testing.T, kind ModelKind) (snap string, image []byte, boundaries []int64, metas, arenas [][]byte) {
	t.Helper()
	snap, _ = seedSnapshot(t, kind, 24)
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
	record := func() {
		meta, arena := committedState(base)
		boundaries = append(boundaries, clog.Stats().SizeBytes)
		metas, arenas = append(metas, meta), append(arenas, arena)
	}
	record()
	for gen := 1; gen <= 5; gen++ {
		v, err := base.NewView(Options{BufferPages: 128})
		if err != nil {
			t.Fatal(err)
		}
		switch gen {
		case 2:
			err = v.sv.Model.UpdateObject(5, func(s *cobench.Station) error {
				for i := 0; i < 20; i++ {
					s.Seeings = append(s.Seeings, cobench.Sightseeing{Nr: int32(900 + i), Description: "grown"})
				}
				return nil
			})
		case 4:
			err = v.sv.Model.UpdateObject(9, func(s *cobench.Station) error { s.Key = 1 << 20; return nil })
		default:
			err = v.sv.UpdateRoots([]int32{6, int32(gen)}, func(_ int32, r *cobench.RootRecord) {
				r.Name = fmt.Sprintf("directory gen %d", gen)
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Commit(clog); err != nil {
			t.Fatal(err)
		}
		v.Close()
		record()
	}
	if image, err = os.ReadFile(filepath.Join(dir, WALFileName)); err != nil {
		t.Fatal(err)
	}
	for i, b := range walBatches(t, image) {
		if full := i == 1 || i == 3; (len(b.marker.Meta) > 0) != full {
			t.Fatalf("%s commit %d: marker carries %d metadata bytes, structural update: %v", kind, i+1, len(b.marker.Meta), full)
		}
		if len(b.marker.Meta) > 0 && !bytes.Equal(b.marker.Meta, metas[i+1]) {
			t.Fatalf("%s commit %d: marker blob is not the generation's", kind, i+1)
		}
	}
	if bytes.Equal(metas[1], metas[2]) || bytes.Equal(metas[3], metas[4]) || !bytes.Equal(metas[2], metas[3]) {
		t.Fatalf("%s: the history does not move the directory where it should", kind)
	}
	return snap, image, boundaries, metas, arenas
}

// recoverOnto recovers a log image over the seed and holds the outcome to
// generation n of the history, directory and arena both.
func recoverOnto(t *testing.T, kind ModelKind, snap string, image []byte, n int, metas, arenas [][]byte, what string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, WALFileName), image, 0o644); err != nil {
		t.Fatal(err)
	}
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
	replayed, err := clog.Recover()
	if err != nil {
		t.Fatalf("%s: recover: %v", what, err)
	}
	if replayed != n || base.Gen() != uint64(n) {
		t.Fatalf("%s: replayed %d commits onto generation %d, want %d", what, replayed, base.Gen(), n)
	}
	meta, arena := committedState(base)
	if !bytes.Equal(meta, metas[n]) {
		t.Fatalf("%s: recovered generation %d with another generation's directory", what, n)
	}
	if !bytes.Equal(arena, arenas[n]) {
		t.Fatalf("%s: recovered generation %d with different pages", what, n)
	}
	// The directory must also decode and agree with the pages.
	v, err := base.NewView(Options{BufferPages: 128})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	defer v.Close()
	if _, err := v.Run(cobench.Q1c, cobench.Workload{Loops: 1, Samples: 1, Seed: 1}); err != nil {
		t.Fatalf("%s: scan of the recovered generation: %v", what, err)
	}
}

// TestCommitLogMixedMarkersCrashAtEveryRecord cuts a log that interleaves
// full and empty markers at every record boundary: each cut recovers the
// commits whose marker survived, with the directory of exactly that
// generation — the last full blob at or before it, or the seed's.
func TestCommitLogMixedMarkersCrashAtEveryRecord(t *testing.T) {
	for _, kind := range []ModelKind{DASDBSDSM, NSM, DASDBSNSM} {
		t.Run(kind.String(), func(t *testing.T) {
			snap, image, boundaries, metas, arenas := directoryHistory(t, kind)
			cuts := 0
			for off := int64(0); ; cuts++ {
				n := 0
				for i, b := range boundaries {
					if b <= off {
						n = i
					}
				}
				recoverOnto(t, kind, snap, image[:off], n, metas, arenas, fmt.Sprintf("cut at record boundary %d", off))
				if off == int64(len(image)) {
					break
				}
				// The 8-byte log header, then records framed as u32
				// payload length, u32 checksum, payload.
				if off == 0 {
					off = 8
					continue
				}
				off += 8 + int64(binary.BigEndian.Uint32(image[off:]))
			}
			if cuts < 3*len(boundaries) {
				t.Fatalf("walked %d records over %d commits: the framing walk is off", cuts, len(boundaries)-1)
			}
		})
	}
}

// TestCommitLogEmptyMarkersRecoverOntoCheckpoint: after a checkpoint has
// truncated the log, markers that say "directory unchanged" refer to the
// checkpoint's directory — the one a structural commit before the
// truncation installed — not the seed's.
func TestCommitLogEmptyMarkersRecoverOntoCheckpoint(t *testing.T) {
	const kind = NSMIndex
	snap, _ := seedSnapshot(t, kind, 24)
	dir := t.TempDir()
	open := func() (*CommitLog, *Base, int) {
		t.Helper()
		clog, err := OpenCommitLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		base, err := clog.OpenBase(kind, snap)
		if err != nil {
			t.Fatal(err)
		}
		n, err := clog.Recover()
		if err != nil {
			t.Fatal(err)
		}
		return clog, base, n
	}
	commit := func(clog *CommitLog, base *Base, update func(v *View) error) {
		t.Helper()
		v, err := base.NewView(Options{BufferPages: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		if err := update(v); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Commit(clog); err != nil {
			t.Fatal(err)
		}
	}
	clog, base, _ := open()
	seedMeta, _ := committedState(base)
	commit(clog, base, func(v *View) error {
		return v.sv.Model.UpdateObject(3, func(s *cobench.Station) error {
			s.Seeings = s.Seeings[:len(s.Seeings)/2]
			s.Platforms = append(s.Platforms, cobench.Platform{Nr: 77, Information: "added"})
			return nil
		})
	})
	if err := clog.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		commit(clog, base, func(v *View) error {
			return v.sv.UpdateRoots([]int32{3, 6}, func(_ int32, r *cobench.RootRecord) { r.Name = fmt.Sprintf("after checkpoint %d", i) })
		})
	}
	wantMeta, wantArena := committedState(base)
	if bytes.Equal(wantMeta, seedMeta) {
		t.Fatal("the structural update left the directory as seeded; nothing to pin")
	}
	clog.Close()
	base.Close()

	image, err := os.ReadFile(filepath.Join(dir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	batches := walBatches(t, image)
	if len(batches) != 3 {
		t.Fatalf("log holds %d batches after the checkpoint, want 3", len(batches))
	}
	for i, b := range batches {
		if len(b.marker.Meta) != 0 {
			t.Fatalf("batch %d: a root-stamp commit logged %d metadata bytes", i, len(b.marker.Meta))
		}
	}

	re, base2, n := open()
	defer re.Close()
	defer base2.Close()
	gotMeta, gotArena := committedState(base2)
	if n != 3 || !bytes.Equal(gotMeta, wantMeta) || !bytes.Equal(gotArena, wantArena) {
		t.Fatalf("replayed %d empty-marker batches over the checkpoint: directory intact %v, pages intact %v",
			n, bytes.Equal(gotMeta, wantMeta), bytes.Equal(gotArena, wantArena))
	}
	v, err := base2.NewView(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if st, err := v.sv.FetchByAddress(3); err != nil || st.Name != "after checkpoint 3" || st.Platforms[len(st.Platforms)-1].Nr != 77 {
		t.Fatalf("recovered object 3 = %+v, %v", st, err)
	}
}

// TestCommitLogReplaysFullMetaLog: a log in the shape every earlier build
// wrote — the full directory blob in every marker — replays onto the same
// generations as the log that elides the unchanged ones.
func TestCommitLogReplaysFullMetaLog(t *testing.T) {
	const kind = DASDBSNSM
	snap, image, _, metas, arenas := directoryHistory(t, kind)

	f, err := os.CreateTemp(t.TempDir(), "full-*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := wal.Open(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	var boundaries []int64
	for i, b := range walBatches(t, image) {
		b.marker.Meta = metas[i+1]
		if _, err := log.Commit(b.pages, b.marker); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, log.Size())
	}
	full, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= len(image)+len(metas[1]) {
		t.Fatalf("full-blob log of %d bytes is no larger than the eliding one (%d)", len(full), len(image))
	}
	for i, b := range boundaries {
		recoverOnto(t, kind, snap, full[:b], i+1, metas, arenas, fmt.Sprintf("full-blob log, %d commits", i+1))
	}
}

// TestDurableReadPathCountersBitIdentical pins the acceptance bar of the
// durable write path: arming the commit log must not move a single
// read-path paper counter. The full query set measures identically on a
// freshly loaded private database (the reference), a snapshot restore, a
// copy-on-write view of the shared base, a view over a commit-log base —
// and again after a
// durable commit has promoted a new generation. On that generation a
// pooled view rebased in place (the committer's own at release, an idle
// sibling at its next acquisition) must be indistinguishable from one
// Base.NewView builds.
func TestDurableReadPathCountersBitIdentical(t *testing.T) {
	w := cobench.Workload{Loops: 10, Samples: 8, Seed: 1993}
	queries := cobench.AllQueries()
	opts := Options{BufferPages: 128}

	// runAll executes the query set in order and strips the wall-clock
	// field, which is observability, not a counter.
	runAll := func(t *testing.T, run func(cobench.Query, cobench.Workload) (QueryResult, error)) []QueryResult {
		t.Helper()
		out := make([]QueryResult, 0, len(queries))
		for _, q := range queries {
			res, err := run(q, w)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			res.Elapsed = 0
			out = append(out, res)
		}
		return out
	}

	for _, kind := range AllModels() {
		t.Run(kind.String(), func(t *testing.T) {
			snap, stations := seedSnapshot(t, kind, 30)

			db, err := Open(kind, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Load(stations); err != nil {
				t.Fatal(err)
			}
			baseline := runAll(t, db.Run)
			db.Close()

			sdb, err := OpenSnapshot(snap, kind, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := runAll(t, sdb.Run); !reflect.DeepEqual(got, baseline) {
				t.Fatalf("snapshot restore diverged:\n got %+v\nwant %+v", got, baseline)
			}
			sdb.Close()

			cowBase, err := OpenBase(snap, kind)
			if err != nil {
				t.Fatal(err)
			}
			cdb, err := cowBase.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := runAll(t, cdb.Run); !reflect.DeepEqual(got, baseline) {
				t.Fatalf("shared-base view diverged:\n got %+v\nwant %+v", got, baseline)
			}
			cdb.Close()
			cowBase.Close()

			clog, err := OpenCommitLog(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer clog.Close()
			wbase, err := clog.OpenBase(kind, snap)
			if err != nil {
				t.Fatal(err)
			}
			defer wbase.Close()
			if _, err := clog.Recover(); err != nil {
				t.Fatal(err)
			}
			v, err := wbase.NewView(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := runAll(t, v.Run); !reflect.DeepEqual(got, baseline) {
				t.Fatalf("wal-armed view diverged:\n got %+v\nwant %+v", got, baseline)
			}
			// Commit the mutations the update queries made: size-preserving
			// stamps, so the promoted generation must measure identically.
			if _, err := v.Commit(clog); err != nil {
				t.Fatal(err)
			}
			v.Close()
			v2, err := wbase.NewView(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer v2.Close()
			if wbase.Gen() == 0 {
				t.Fatal("commit did not promote a generation")
			}
			if got := runAll(t, v2.Run); !reflect.DeepEqual(got, baseline) {
				t.Fatalf("post-commit generation diverged:\n got %+v\nwant %+v", got, baseline)
			}

			// Rebase ≡ fresh: strand a committer and an idle sibling behind
			// another durable commit, then measure each rebased view against
			// a fresh one on the same generation, query by query.
			pool, err := NewViewPool(wbase, opts, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			committer, err := pool.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			sibling, err := pool.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			if err := sibling.Close(); err != nil {
				t.Fatal(err)
			}
			runAll(t, committer.Run)
			if info, err := committer.Commit(clog); err != nil || info.Pages == 0 {
				t.Fatalf("second commit: %+v, %v", info, err)
			}
			if err := committer.Close(); err != nil {
				t.Fatal(err)
			}
			for _, how := range []string{"rebased at release", "rebased at acquisition"} {
				rebased, err := pool.Acquire()
				if err != nil {
					t.Fatal(err)
				}
				defer rebased.Close()
				fresh, err := wbase.NewView(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer fresh.Close()
				if rebased.Gen() != wbase.Gen() || fresh.Gen() != wbase.Gen() {
					t.Fatalf("%s: view at generation %d, fresh at %d, base at %d", how, rebased.Gen(), fresh.Gen(), wbase.Gen())
				}
				for _, q := range []cobench.Query{cobench.Q1a, cobench.Q1c, cobench.Q2b, cobench.Q3a} {
					got, err := rebased.Run(q, w)
					if err != nil {
						t.Fatalf("%s: %s: %v", how, q, err)
					}
					want, err := fresh.Run(q, w)
					if err != nil {
						t.Fatalf("fresh view: %s: %v", q, err)
					}
					got.Elapsed, want.Elapsed = 0, 0
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("view %s diverged from a fresh view on %s:\n got %+v\nwant %+v", how, q, got, want)
					}
				}
			}
			if ps := pool.Stats(); ps.Stale != 2 || ps.Reused != 2 || ps.Destroyed != 0 {
				t.Fatalf("pool after the rebases: %+v, want Stale=2 Reused=2 Destroyed=0", ps)
			}
		})
	}
}

// TestCommitLogKillBetweenLinkedCheckpointRenames crashes a checkpoint over
// a seeded directory between its first two renames: DSM's checkpoint is in
// place, DASDBS-DSM's name still links the seed container both kinds were
// opened from, and the log is whole. Recovery opens DSM from its new file
// and DASDBS-DSM from the seed, replays the log over both and must reach
// every acknowledged generation: each kind its own commits, nothing of the
// other's.
func TestCommitLogKillBetweenLinkedCheckpointRenames(t *testing.T) {
	const rootIdx = 6
	kinds := []ModelKind{DSM, DASDBSDSM}
	dir := t.TempDir()
	dbs := []*DB{smallDB(t, DSM), smallDB(t, DASDBSDSM)}
	for _, db := range dbs {
		defer db.Close()
	}
	seed, err := dbs[1].ReadRoot(rootIdx)
	if err != nil {
		t.Fatal(err)
	}
	seedName := seed.Name
	if err := SeedCommitDir(dir, dbs...); err != nil {
		t.Fatal(err)
	}
	open := func() (*CommitLog, []*Base, int) {
		t.Helper()
		clog, err := OpenCommitLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		bases := make([]*Base, len(kinds))
		for i, k := range kinds {
			if bases[i], err = clog.OpenBase(k, ""); err != nil {
				t.Fatal(err)
			}
		}
		n, err := clog.Recover()
		if err != nil {
			t.Fatal(err)
		}
		return clog, bases, n
	}
	rootName := func(b *Base) string {
		t.Helper()
		v, err := b.NewView(Options{BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		r, err := v.sv.ReadRoot(rootIdx)
		if err != nil {
			t.Fatal(err)
		}
		return r.Name
	}

	clog, bases, _ := open()
	if bases[0].Owners() != 2 {
		t.Fatalf("DSM and DASDBS-DSM over the seed stand on %d-owner bases, want one floor", bases[0].Owners())
	}
	want := make([]string, len(kinds))
	for r := 1; r <= 3; r++ {
		for i, b := range bases {
			if i == 1 && r == 3 {
				continue // DASDBS-DSM's last acked generation is 2
			}
			want[i] = fmt.Sprintf("%s round %d", kinds[i], r)
			v, err := b.NewView(Options{BufferPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := v.sv.UpdateRoots([]int32{rootIdx}, func(_ int32, rr *cobench.RootRecord) { rr.Name = want[i] }); err != nil {
				t.Fatal(err)
			}
			if _, err := v.Commit(clog); err != nil {
				t.Fatal(err)
			}
			v.Close()
		}
	}
	// The checkpoint's first rename, then the kill: the log is untouched.
	if err := snapshot.WriteSidecar(dir, bases[0].base, clog.handle().LastSeq()); err != nil {
		t.Fatal(err)
	}
	for _, b := range bases {
		b.Close()
	}
	clog.Close()
	if sc, err := snapshot.StatSidecar(dir, DASDBSDSM.internal()); err != nil || sc.Seq != 0 {
		t.Fatalf("DASDBS-DSM's name no longer links the seed: %+v, %v", sc, err)
	}
	linked, err := OpenBase(filepath.Join(dir, "ddsm.codb"), DSM)
	if err != nil {
		t.Fatal(err)
	}
	if name := rootName(linked); name != seedName {
		t.Fatalf("DSM's rename changed the seed under DASDBS-DSM's name: DSM reads %q there", name)
	}
	linked.Close()

	re, bases2, n := open()
	defer re.Close()
	if n != 5 {
		t.Fatalf("recovery replayed %d batches, the log holds 5", n)
	}
	for i, b := range bases2 {
		if b.Gen() != uint64(3-i) {
			t.Errorf("%s recovered onto generation %d, want %d", kinds[i], b.Gen(), 3-i)
		}
		if got := rootName(b); got != want[i] {
			t.Errorf("%s recovered %q, want its last acked %q", kinds[i], got, want[i])
		}
		b.Close()
	}
}
