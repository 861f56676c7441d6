package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/iostat"
	"complexobj/internal/wal"
)

func openTestWAL(t *testing.T, path string) (*wal.Log, func(apply func(wal.CommitRecord, []wal.PageRecord) error) *wal.Log) {
	t.Helper()
	open := func(apply func(wal.CommitRecord, []wal.PageRecord) error) *wal.Log {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		l, err := wal.Open(f, apply)
		if err != nil {
			t.Fatalf("wal open: %v", err)
		}
		return l
	}
	return open(nil), open
}

// TestViewCommitPromotesGeneration: a committed view's updates become the
// next base generation — visible to views opened after the commit,
// invisible to views opened before it (they drain on their generation).
func TestViewCommitPromotesGeneration(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(40))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			orig := loadModel(t, k, stations)
			base, err := Freeze(orig)
			if err != nil {
				t.Fatal(err)
			}
			orig.Engine().Close()
			defer base.Release()
			if base.Gen() != 0 {
				t.Fatalf("fresh base at generation %d", base.Gen())
			}

			before, err := base.NewView(Options{BufferPages: 200})
			if err != nil {
				t.Fatal(err)
			}
			defer before.Close()

			writer, err := base.NewView(Options{BufferPages: 200})
			if err != nil {
				t.Fatal(err)
			}
			defer writer.Close()
			if err := writer.UpdateRoots([]int32{5, 11}, func(i int32, r *cobench.RootRecord) {
				r.Name = "committed update"
			}); err != nil {
				t.Fatal(err)
			}
			res, err := writer.Commit(nil)
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			if res.Gen != 1 || res.Pages == 0 {
				t.Fatalf("commit result %+v, want generation 1 with pages", res)
			}
			if base.Gen() != 1 {
				t.Fatalf("base at generation %d after commit", base.Gen())
			}
			if writer.Gen() != 0 {
				t.Fatalf("writer moved to generation %d; views stay on their open generation", writer.Gen())
			}

			after, err := base.NewView(Options{BufferPages: 200})
			if err != nil {
				t.Fatal(err)
			}
			defer after.Close()
			if after.Gen() != 1 {
				t.Fatalf("new view at generation %d", after.Gen())
			}
			got, err := after.FetchByKey(stations[5].Key)
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != "committed update" {
				t.Fatal("view of the promoted generation does not observe the commit")
			}
			// The pre-commit view still reads the old generation, even
			// after recycling back to its pristine state.
			if _, err := before.Recycle(); err != nil {
				t.Fatal(err)
			}
			old, err := before.FetchByKey(stations[5].Key)
			if err != nil {
				t.Fatal(err)
			}
			if old.Name != stations[5].Name {
				t.Fatal("pre-commit view observes the promoted generation")
			}

			// Rebasing lands the committing view on the new generation
			// with its engine intact, a cold cache and zeroed counters.
			eng := writer.Engine()
			if err := writer.Rebase(); err != nil {
				t.Fatal(err)
			}
			if writer.Gen() != 1 || writer.Engine() != eng || writer.Engine().Stats() != (iostat.Stats{}) {
				t.Fatalf("rebased view: generation %d, engine kept %v, counters %+v", writer.Gen(), writer.Engine() == eng, writer.Engine().Stats())
			}
			if got, err := writer.FetchByKey(stations[5].Key); err != nil || got.Name != "committed update" {
				t.Fatalf("rebased view does not read the promoted generation: %v", err)
			}

			// An empty commit is a no-op: no promotion, generation stays.
			idle, err := base.NewView(Options{BufferPages: 200})
			if err != nil {
				t.Fatal(err)
			}
			defer idle.Close()
			if res, err := idle.Commit(nil); err != nil || res.Gen != 1 || res.Pages != 0 {
				t.Fatalf("empty commit: %+v, %v", res, err)
			}
			if base.Gen() != 1 {
				t.Fatalf("empty commit moved the base to generation %d", base.Gen())
			}
		})
	}
}

// TestPromoteStaleGeneration pins the optimistic-concurrency check.
func TestPromoteStaleGeneration(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(20))
	if err != nil {
		t.Fatal(err)
	}
	orig := loadModel(t, NSM, stations)
	base, err := Freeze(orig)
	if err != nil {
		t.Fatal(err)
	}
	orig.Engine().Close()
	defer base.Release()
	meta := base.Meta()
	if _, err := base.Promote(0, base.NumPages(), meta, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := base.Promote(0, base.NumPages(), meta, nil); !errors.Is(err, ErrStaleBase) {
		t.Fatalf("stale promote: %v, want ErrStaleBase", err)
	}
	if base.Gen() != 1 {
		t.Fatalf("failed promote moved the generation to %d", base.Gen())
	}
}

// TestCommitWALReplayReconstructsGeneration is the tentpole round trip:
// commits logged through a real file-backed WAL, replayed over a second
// base frozen from the same original state, must land on a byte-identical
// arena and generation — the crash-recovery path in miniature. Replay
// promotes through the same code as a live commit, so 120 batches
// rewriting the same pages recycle there too: the replayed generation
// holds as many committed pages as the live one, and the replay's
// promotes allocate the images of a few batches, not of 120.
func TestCommitWALReplayReconstructsGeneration(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(40))
	if err != nil {
		t.Fatal(err)
	}
	orig := loadModel(t, DASDBSNSM, stations)
	live, err := Freeze(orig)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := Freeze(orig) // same pristine state, separate base
	if err != nil {
		t.Fatal(err)
	}
	orig.Engine().Close()
	defer live.Release()
	defer recovered.Release()

	const rounds = 120
	name := func(round int) string { return fmt.Sprintf("committed name %03d", round) }
	log, reopen := openTestWAL(t, filepath.Join(t.TempDir(), "wal.log"))
	pagesPerBatch := 0
	for round := 0; round < rounds; round++ {
		v, err := live.NewView(Options{BufferPages: 200})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.UpdateRoots([]int32{int32(round % 2), 7}, func(i int32, r *cobench.RootRecord) {
			r.Name = name(round)
		}); err != nil {
			t.Fatal(err)
		}
		res, err := v.Commit(log)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Seq != uint64(round+1) || res.Gen != uint64(round+1) {
			t.Fatalf("round %d: result %+v", round, res)
		}
		pagesPerBatch = max(pagesPerBatch, res.Pages)
		v.Close()
	}

	// "Crash": reopen the log and replay every committed batch onto the
	// recovered base, measuring what the promotes allocate.
	var promoted uint64
	var before, after runtime.MemStats
	reopen(func(c wal.CommitRecord, pages []wal.PageRecord) error {
		if Kind(c.Model) != DASDBSNSM {
			t.Fatalf("replayed model %d", c.Model)
		}
		patches := make(map[int][]byte, len(pages))
		for _, p := range pages {
			patches[int(p.Page)] = p.Image
		}
		runtime.ReadMemStats(&before)
		_, err := recovered.Promote(recovered.Gen(), int(c.NumPages), c.Meta, patches)
		runtime.ReadMemStats(&after)
		promoted += after.TotalAlloc - before.TotalAlloc
		return err
	})

	if recovered.Gen() != live.Gen() || live.Gen() != rounds {
		t.Fatalf("recovered generation %d, live %d, want %d", recovered.Gen(), live.Gen(), rounds)
	}
	if !bytes.Equal(checksumBase(recovered), checksumBase(live)) {
		t.Fatal("replayed arena differs from the live promoted arena")
	}
	if recovered.DeltaPages() != live.DeltaPages() || live.DeltaPages() > 2*pagesPerBatch {
		t.Fatalf("replayed generation holds %d committed pages, live %d; %d batches of at most %d pages",
			recovered.DeltaPages(), live.DeltaPages(), rounds, pagesPerBatch)
	}
	// A generation record per batch, and page images, leaves and roots for
	// the first few: without recycling it would be 120 batches' images.
	if budget := uint64(rounds*256 + 4*pagesPerBatch*recovered.PageSize()); promoted > budget {
		t.Fatalf("replaying %d batches of ≤ %d pages allocated %d bytes in Promote, want ≤ %d: the replay does not recycle",
			rounds, pagesPerBatch, promoted, budget)
	}
	v, err := recovered.NewView(Options{BufferPages: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	got, err := v.FetchByKey(stations[7].Key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != name(rounds-1) {
		t.Fatalf("recovered view reads %q", got.Name)
	}
}
