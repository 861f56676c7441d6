package wal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"complexobj/internal/disk"
	"complexobj/internal/faultdisk"
)

// batch is one committed unit as seen by a replay callback.
type batch struct {
	commit CommitRecord
	pages  []PageRecord
}

// collector builds a replay callback that deep-copies what it sees (the
// scanner's buffers are reused).
func collector(out *[]batch) func(CommitRecord, []PageRecord) error {
	return func(c CommitRecord, pages []PageRecord) error {
		b := batch{commit: c}
		b.commit.Meta = append([]byte(nil), c.Meta...)
		for _, p := range pages {
			b.pages = append(b.pages, PageRecord{
				Model: p.Model, Page: p.Page, Image: append([]byte(nil), p.Image...),
			})
		}
		*out = append(*out, b)
		return nil
	}
}

// testBatch builds a deterministic batch for model kind with n pages.
func testBatch(kind byte, n int, stamp byte) ([]PageRecord, CommitRecord) {
	pages := make([]PageRecord, n)
	for i := range pages {
		img := bytes.Repeat([]byte{stamp + byte(i)}, 64)
		pages[i] = PageRecord{Model: kind, Page: uint32(10 + i), Image: img}
	}
	c := CommitRecord{Model: kind, NumPages: uint32(100 + n), Meta: []byte{0xAB, stamp}}
	return pages, c
}

func mustOpen(t *testing.T, dev Device, apply func(CommitRecord, []PageRecord) error) *Log {
	t.Helper()
	l, err := Open(dev, apply)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func TestCommitReplayRoundTrip(t *testing.T) {
	dev := newMemDevice(nil)
	l := mustOpen(t, dev, nil)
	var want []batch
	for i := 0; i < 3; i++ {
		pages, c := testBatch(byte(i), i+1, byte(0x10*i))
		if i == 1 {
			c.Meta = nil // "directory unchanged": replays as an empty blob
		}
		seq, err := l.Commit(pages, c)
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("commit %d: seq %d, want %d", i, seq, i+1)
		}
		c.Seq = seq
		want = append(want, batch{commit: c, pages: pages})
	}
	if s := l.Stats(); s.Commits != 3 || s.LastSeq != 3 || s.SizeBytes == 0 {
		t.Fatalf("stats after 3 commits: %+v", s)
	}
	// The three batches carried 1+2+3 pages of 64 bytes each; everything
	// appended on top of that payload is framing — the amplification the
	// serving layer reports.
	if s := l.Stats(); s.PayloadBytes != 6*64 || s.AppendedBytes <= s.PayloadBytes {
		t.Fatalf("payload accounting: appended %d, payload %d (want payload %d and appended > payload)",
			s.AppendedBytes, s.PayloadBytes, 6*64)
	}

	// Recover from the durable (synced-only) crash image: every
	// acknowledged commit must be there.
	for round := 0; round < 2; round++ { // replay twice: idempotence
		var got []batch
		l2 := mustOpen(t, dev.crash(true), collector(&got))
		if len(got) != len(want) {
			t.Fatalf("round %d: replayed %d batches, want %d", round, len(got), len(want))
		}
		for i := range want {
			w, g := want[i], got[i]
			if g.commit.Seq != w.commit.Seq || g.commit.Model != w.commit.Model ||
				g.commit.NumPages != w.commit.NumPages || !bytes.Equal(g.commit.Meta, w.commit.Meta) {
				t.Fatalf("round %d batch %d: commit %+v, want %+v", round, i, g.commit, w.commit)
			}
			if len(g.pages) != len(w.pages) {
				t.Fatalf("round %d batch %d: %d pages, want %d", round, i, len(g.pages), len(w.pages))
			}
			for j := range w.pages {
				if g.pages[j].Model != w.pages[j].Model || g.pages[j].Page != w.pages[j].Page ||
					!bytes.Equal(g.pages[j].Image, w.pages[j].Image) {
					t.Fatalf("round %d batch %d page %d differs", round, i, j)
				}
			}
		}
		// Appending after recovery continues the sequence.
		if l2.LastSeq() != 3 {
			t.Fatalf("round %d: recovered LastSeq %d, want 3", round, l2.LastSeq())
		}
	}
}

// TestTornTailEveryCut crashes the log at every possible torn-write
// length inside the second batch: recovery must always land on exactly
// the first committed batch — never a torn one, never a partial second.
func TestTornTailEveryCut(t *testing.T) {
	dev := newMemDevice(nil)
	l := mustOpen(t, dev, nil)
	p1, c1 := testBatch(1, 2, 0x11)
	if _, err := l.Commit(p1, c1); err != nil {
		t.Fatal(err)
	}
	end1 := l.Size()
	p2, c2 := testBatch(2, 2, 0x22)
	if _, err := l.Commit(p2, c2); err != nil {
		t.Fatal(err)
	}
	full := dev.bytes()

	for cut := end1; cut <= int64(len(full)); cut++ {
		torn := newMemDevice(full[:cut])
		var got []batch
		l2, err := Open(torn, collector(&got))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantBatches := 1
		if cut == int64(len(full)) {
			wantBatches = 2
		}
		if len(got) != wantBatches {
			t.Fatalf("cut %d: replayed %d batches, want %d", cut, len(got), wantBatches)
		}
		if got[0].commit.Seq != 1 {
			t.Fatalf("cut %d: first batch seq %d", cut, got[0].commit.Seq)
		}
		wantEnd := end1
		if wantBatches == 2 {
			wantEnd = int64(len(full))
		}
		if l2.Size() != wantEnd {
			t.Fatalf("cut %d: truncated to %d, want %d", cut, l2.Size(), wantEnd)
		}
		// The log stays appendable after truncation and replays cleanly.
		p3, c3 := testBatch(3, 1, 0x33)
		if _, err := l2.Commit(p3, c3); err != nil {
			t.Fatalf("cut %d: commit after recovery: %v", cut, err)
		}
		var again []batch
		mustOpen(t, torn, collector(&again))
		if len(again) != wantBatches+1 {
			t.Fatalf("cut %d: %d batches after recovery commit, want %d", cut, len(again), wantBatches+1)
		}
	}
}

// TestCorruptByteNeverReplaysPast flips every byte of the second batch
// in turn: the checksum must stop replay at batch one every time.
func TestCorruptByteNeverReplaysPast(t *testing.T) {
	dev := newMemDevice(nil)
	l := mustOpen(t, dev, nil)
	p1, c1 := testBatch(1, 1, 0x11)
	if _, err := l.Commit(p1, c1); err != nil {
		t.Fatal(err)
	}
	end1 := l.Size()
	p2, c2 := testBatch(2, 1, 0x22)
	if _, err := l.Commit(p2, c2); err != nil {
		t.Fatal(err)
	}
	full := dev.bytes()

	for i := end1; i < int64(len(full)); i++ {
		corrupt := append([]byte(nil), full...)
		corrupt[i] ^= 0xFF
		var got []batch
		l2, err := Open(newMemDevice(corrupt), collector(&got))
		if err != nil {
			t.Fatalf("flip %d: %v", i, err)
		}
		if len(got) != 1 || got[0].commit.Seq != 1 {
			t.Fatalf("flip %d: replayed %d batches (first seq %v), want only batch 1",
				i, len(got), got)
		}
		if l2.Size() != end1 {
			t.Fatalf("flip %d: truncated to %d, want %d", i, l2.Size(), end1)
		}
	}
}

// TestUncommittedTailDropped appends a valid page record with no commit
// marker after it (a crash between append and marker): replay must not
// surface it and recovery must truncate it.
func TestUncommittedTailDropped(t *testing.T) {
	dev := newMemDevice(nil)
	l := mustOpen(t, dev, nil)
	p1, c1 := testBatch(1, 1, 0x11)
	if _, err := l.Commit(p1, c1); err != nil {
		t.Fatal(err)
	}
	end1 := l.Size()
	orphan := appendPage(nil, PageRecord{Model: 9, Page: 7, Image: []byte("orphan")})
	if _, err := dev.WriteAt(orphan, end1); err != nil {
		t.Fatal(err)
	}
	var got []batch
	l2 := mustOpen(t, dev, collector(&got))
	if len(got) != 1 {
		t.Fatalf("replayed %d batches, want 1", len(got))
	}
	if l2.Size() != end1 {
		t.Fatalf("size %d after recovery, want %d", l2.Size(), end1)
	}
}

// TestGroupCommit pins the batching: the first sync wave is held open
// until all committers have appended, so 16 concurrent commits complete
// in at most two syncs (the held wave plus one covering the rest).
func TestGroupCommit(t *testing.T) {
	const committers = 16
	// Measure the encoded batch size on a scratch log.
	scratch := mustOpen(t, newMemDevice(nil), nil)
	pages, c := testBatch(1, 2, 0x11)
	if _, err := scratch.Commit(pages, c); err != nil {
		t.Fatal(err)
	}
	batchBytes := scratch.Size() - headerSize

	dev := newMemDevice(nil)
	l := mustOpen(t, dev, nil) // Open issues one sync of its own
	holdWave := dev.wave + 1
	total := headerSize + committers*batchBytes
	dev.syncHook = func(wave int) error {
		if wave != holdWave {
			return nil
		}
		deadline := time.Now().Add(5 * time.Second)
		for l.Size() < total {
			if time.Now().After(deadline) {
				return errors.New("timed out waiting for appends")
			}
			time.Sleep(100 * time.Microsecond)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pages, c := testBatch(1, 2, 0x11)
			_, errs[i] = l.Commit(pages, c)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("committer %d: %v", i, err)
		}
	}
	s := l.Stats()
	if s.Commits != committers {
		t.Fatalf("commits %d, want %d", s.Commits, committers)
	}
	if s.Syncs > 2 {
		t.Fatalf("%d syncs for %d concurrent commits; group commit must batch them into at most 2", s.Syncs, committers)
	}
}

// TestSyncErrorFailsCommit pins that a failed sync fails the commit (no
// acknowledgment without durability) and the log recovers: a later
// commit succeeds and replay stays consistent.
func TestSyncErrorFailsCommit(t *testing.T) {
	dev := newMemDevice(nil)
	l := mustOpen(t, dev, nil)
	boom := errors.New("sync exploded")
	dev.syncHook = func(wave int) error { return boom }
	p1, c1 := testBatch(1, 1, 0x11)
	if _, err := l.Commit(p1, c1); !errors.Is(err, boom) {
		t.Fatalf("commit with failing sync: %v, want %v", err, boom)
	}
	if s := l.Stats(); s.Commits != 0 {
		t.Fatalf("failed commit acknowledged: %+v", s)
	}
	// The pessimistic crash image holds nothing committed.
	var got []batch
	mustOpen(t, dev.crash(true), collector(&got))
	if len(got) != 0 {
		t.Fatalf("unsynced commit visible in durable image: %d batches", len(got))
	}
	// The device heals; committing again succeeds and both batches (the
	// first one's bytes were appended, its marker is on the device) are
	// recoverable — recovering MORE than was acknowledged is fine, losing
	// acknowledged commits is not.
	dev.syncHook = nil
	p2, c2 := testBatch(2, 1, 0x22)
	if _, err := l.Commit(p2, c2); err != nil {
		t.Fatal(err)
	}
	got = nil
	mustOpen(t, dev.crash(true), collector(&got))
	if len(got) != 2 {
		t.Fatalf("replayed %d batches after recovery, want 2", len(got))
	}
}

// TestSetSeq pins the checkpoint contract: after a Reset truncates the
// log, the facade restores the persisted sequence so numbering stays
// monotonic across checkpoints and restarts.
func TestSetSeq(t *testing.T) {
	dev := newMemDevice(nil)
	l := mustOpen(t, dev, nil)
	p, c := testBatch(1, 1, 0x11)
	if _, err := l.Commit(p, c); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != headerSize {
		t.Fatalf("size %d after reset, want the %d-byte header", l.Size(), headerSize)
	}
	if seq, err := l.Commit(p, c); err != nil || seq != 2 {
		t.Fatalf("post-reset commit: seq %d err %v, want 2", seq, err)
	}

	// A restart over the truncated log starts at zero unless the
	// checkpointed sequence is restored.
	l2 := mustOpen(t, newMemDevice(nil), nil)
	l2.SetSeq(17)
	if seq, err := l2.Commit(p, c); err != nil || seq != 18 {
		t.Fatalf("commit after SetSeq(17): seq %d err %v, want 18", seq, err)
	}
	l2.SetSeq(5) // never moves backwards
	if seq, err := l2.Commit(p, c); err != nil || seq != 19 {
		t.Fatalf("commit after backwards SetSeq: seq %d err %v, want 19", seq, err)
	}
}

// TestFaultdiskTornWrite drives the log over a faultdisk-wrapped
// backend injecting torn writes: the commit fails, the half-written
// garbage lands on the device, and recovery over the raw backend
// truncates it back to the last committed batch.
func TestFaultdiskTornWrite(t *testing.T) {
	mem := disk.NewMemBackend()
	clean := mustOpen(t, newBackendDevice(mem), nil)
	p1, c1 := testBatch(1, 2, 0x11)
	if _, err := clean.Commit(p1, c1); err != nil {
		t.Fatal(err)
	}
	end1 := clean.Size()

	spec, err := faultdisk.ParseSpec("seed=7,torn=1")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultdisk.New(spec)
	torn := mustOpen(t, newBackendDevice(inj.Wrap(mem)), nil)
	torn.SetSeq(1)
	p2, c2 := testBatch(2, 2, 0x22)
	if _, err := torn.Commit(p2, c2); err == nil {
		t.Fatal("commit through a torn write succeeded")
	}
	if inj.Counters().TornWrites == 0 {
		t.Fatal("no torn write was injected")
	}

	// Crash and recover over the raw backend: the torn garbage is past
	// end1 (the backend grew for the attempted write) and must be cut.
	var got []batch
	recovered, err := Open(newBackendDevice(mem), collector(&got))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if len(got) != 1 || got[0].commit.Seq != 1 {
		t.Fatalf("recovered %d batches, want the 1 committed one", len(got))
	}
	if recovered.Size() != end1 {
		t.Fatalf("recovered size %d, want %d", recovered.Size(), end1)
	}
	// And the log serves new commits afterwards.
	if _, err := recovered.Commit(p2, c2); err != nil {
		t.Fatal(err)
	}
}

// TestFaultdiskShortReadAborts pins the recovery-safety choice: a
// device READ error during replay aborts Open with an error instead of
// truncating — a transient short read must never cost committed data.
func TestFaultdiskShortReadAborts(t *testing.T) {
	mem := disk.NewMemBackend()
	l := mustOpen(t, newBackendDevice(mem), nil)
	p1, c1 := testBatch(1, 2, 0x11)
	if _, err := l.Commit(p1, c1); err != nil {
		t.Fatal(err)
	}
	spec, err := faultdisk.ParseSpec("seed=7,read=1,short=1")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := faultdisk.New(spec).Wrap(mem)
	if _, err := Open(newBackendDevice(wrapped), nil); err == nil {
		t.Fatal("Open through injected short reads succeeded")
	}
	// The data was untouched: a clean reopen replays the batch.
	var got []batch
	mustOpen(t, newBackendDevice(mem), collector(&got))
	if len(got) != 1 {
		t.Fatalf("committed batch lost: %d batches", len(got))
	}
}

// TestReplayApplyErrorAborts: a failing apply callback must abort Open
// (the caller's base could not fold the batch; truncating would lose it).
func TestReplayApplyErrorAborts(t *testing.T) {
	dev := newMemDevice(nil)
	l := mustOpen(t, dev, nil)
	p, c := testBatch(1, 1, 0x11)
	if _, err := l.Commit(p, c); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("apply failed")
	if _, err := Open(dev, func(CommitRecord, []PageRecord) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Open with failing apply: %v, want %v", err, boom)
	}
}

// TestEmptyAndGarbageLogs: opening empty or pure-garbage devices never
// panics and yields an empty, usable log.
func TestEmptyAndGarbageLogs(t *testing.T) {
	for _, raw := range [][]byte{
		nil,
		{0x01},
		bytes.Repeat([]byte{0xFF}, 4096),
		bytes.Repeat([]byte{0x00}, 4096),
		[]byte(fmt.Sprintf("%08d not a wal", 42)),
	} {
		var got []batch
		l, err := Open(newMemDevice(raw), collector(&got))
		if err != nil {
			t.Fatalf("garbage %d bytes: %v", len(raw), err)
		}
		if len(got) != 0 || l.Size() != headerSize {
			t.Fatalf("garbage %d bytes: %d batches, size %d", len(raw), len(got), l.Size())
		}
		p, c := testBatch(1, 1, 0x11)
		if _, err := l.Commit(p, c); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEncodeBufferKeepsTheLargestBatch pins what bounds the log's encode
// buffer: it grows only to hold a batch larger than any encoded before,
// and a batch no larger — or any batch after a Reset — is encoded into
// the same memory.
func TestEncodeBufferKeepsTheLargestBatch(t *testing.T) {
	l := mustOpen(t, newMemDevice(nil), nil)
	commit := func(n int) {
		t.Helper()
		p, c := testBatch(1, n, byte(n))
		if _, err := l.Commit(p, c); err != nil {
			t.Fatal(err)
		}
	}
	commit(8)
	largest, kept := len(l.enc), unsafe.SliceData(l.enc)
	for _, n := range []int{1, 8, 3, 0, 8} {
		commit(n)
		if len(l.enc) > largest || unsafe.SliceData(l.enc) != kept {
			t.Fatalf("a batch of %d pages moved the buffer kept for the largest, %d bytes", n, largest)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	commit(8)
	if unsafe.SliceData(l.enc) != kept {
		t.Fatal("a Reset dropped the encode buffer")
	}
	commit(64)
	if len(l.enc) <= largest {
		t.Fatalf("a batch of 64 pages encoded into %d bytes, no more than one of 8", len(l.enc))
	}
}
