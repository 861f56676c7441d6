package complexobj

import (
	"fmt"
	"runtime"
	"testing"

	"complexobj/cobench"
)

// TestCommitPathAllocatesNothingPerCommit pins the Go-heap cost of the
// durable commit path — View.Commit through the write-ahead log and
// Promote, the view rebased, then one Checkpoint — once every page of a
// fixed working set has been committed. A committed image comes from its
// branch's page pool (off the heap, and reused once superseded), the log
// reuses its encode buffer and a checkpoint its one write buffer, so what
// is left per commit is a few small records, and the bound holds however
// many commits share the checkpoint. A heap image per commit costs 2 KiB
// per dirty page; a write buffer per checkpoint costs 64 KiB, which a
// short run cannot spread below the bound.
func TestCommitPathAllocatesNothingPerCommit(t *testing.T) {
	if poisoned {
		t.Skip("the poison build abandons lent scratch at every reuse")
	}
	const kind, workingSet, perCommitBound = DASDBSDSM, 8, 1024
	snap, _ := seedSnapshot(t, kind, 40)
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
	defer v.Close()
	// Names of one length keep every update in place: the same pages are
	// dirtied whichever name is written.
	roots := make([][]int32, workingSet)
	names := make([]string, 2*workingSet)
	for i := range roots {
		roots[i] = []int32{int32(i)}
	}
	for i := range names {
		names[i] = fmt.Sprintf("committed name %03d", i)
	}
	var name string
	rename := func(_ int32, r *cobench.RootRecord) { r.Name = name }
	commit := func(i int) {
		name = names[i%len(names)]
		if err := v.sv.UpdateRoots(roots[i%workingSet], rename); err != nil {
			t.Fatal(err)
		}
		if info, err := v.Commit(clog); err != nil || info.Pages == 0 {
			t.Fatalf("commit %d: %+v, %v", i, info, err)
		}
		if err := v.sv.Rebase(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: every root of the working set committed, twice over, and
	// one checkpoint, so the pool, the log and the view hold what they
	// keep.
	for i := 0; i < 2*len(names); i++ {
		commit(i)
	}
	if err := clog.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{16, 64} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < k; i++ {
			commit(i)
		}
		if err := clog.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perCommit := (after.TotalAlloc - before.TotalAlloc) / uint64(k)
		t.Logf("%d commits + 1 checkpoint: %d B, %d mallocs per commit", k, perCommit, (after.Mallocs-before.Mallocs)/uint64(k))
		if perCommit > perCommitBound {
			t.Errorf("%d commits + 1 checkpoint allocated %d B per commit, want ≤ %d", k, perCommit, perCommitBound)
		}
	}
}
