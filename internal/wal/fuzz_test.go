package wal

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzLogOpen feeds arbitrary device images to the replay scanner. The
// invariants under fuzzing: Open never panics, never returns an error
// for plain corruption (only device errors abort recovery — a memDevice
// has none — and an unknown version, which leaves the device untouched), never replays past the first malformed record, and always
// leaves the device in a state whose re-replay yields the same batches
// (recovery is idempotent and the truncation durable).
func FuzzLogOpen(f *testing.F) {
	// Seed with well-formed logs, torn prefixes of them, and noise.
	dev := newMemDevice(nil)
	l, err := Open(dev, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		img := bytes.Repeat([]byte{byte(0x30 + i)}, 48)
		pages := []PageRecord{{Model: byte(i), Page: uint32(i), Image: img}}
		meta := []byte{1, byte(i)}
		if i == 1 {
			meta = nil // a commit that left the directory as it was
		}
		if _, err := l.Commit(pages, CommitRecord{Model: byte(i), NumPages: 4, Meta: meta}); err != nil {
			f.Fatal(err)
		}
	}
	full := dev.bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-3])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Add(appendPage(nil, PageRecord{Model: 1, Page: 2, Image: []byte("img")}))
	f.Add(appendCommit(nil, CommitRecord{Model: 1, Seq: 9, NumPages: 3, Meta: []byte("m")}))
	f.Add(appendCommit(nil, CommitRecord{Model: 1, Seq: 10, NumPages: 3}))
	f.Add(headerlessLog())
	f.Add(futureLog())

	f.Fuzz(func(t *testing.T, raw []byte) {
		var first []batch
		d1 := newMemDevice(raw)
		l1, err := Open(d1, collector(&first))
		if errors.Is(err, ErrFormat) {
			if !bytes.Equal(d1.bytes(), raw) {
				t.Fatal("a refused log was modified")
			}
			return
		}
		if err != nil {
			t.Fatalf("Open on fuzz input: %v", err)
		}
		// Every replayed batch was read through the checksum path; sizes
		// are consistent with the truncation point.
		if l1.Size() > max(int64(len(raw)), headerSize) {
			t.Fatalf("recovered size %d exceeds input %d", l1.Size(), len(raw))
		}
		// Idempotence: recovering the recovered device replays the same
		// batches and truncates nothing further.
		var second []batch
		l2, err := Open(d1, collector(&second))
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if len(second) != len(first) || l2.Size() != l1.Size() {
			t.Fatalf("recovery not idempotent: %d/%d batches, size %d/%d",
				len(first), len(second), l1.Size(), l2.Size())
		}
		for i := range first {
			if first[i].commit.Seq != second[i].commit.Seq ||
				!bytes.Equal(first[i].commit.Meta, second[i].commit.Meta) ||
				len(first[i].pages) != len(second[i].pages) {
				t.Fatalf("batch %d differs between replays", i)
			}
		}
		// The recovered log accepts appends.
		if _, err := l2.Commit(
			[]PageRecord{{Model: 1, Page: 0, Image: []byte("x")}},
			CommitRecord{Model: 1, NumPages: 1},
		); err != nil {
			t.Fatalf("commit after fuzz recovery: %v", err)
		}
	})
}

// FuzzRecordDecode feeds arbitrary header+payload splits to the shared
// record decoder: it must never panic and must reject every input whose
// checksum does not match.
func FuzzRecordDecode(f *testing.F) {
	good := appendPage(nil, PageRecord{Model: 3, Page: 12, Image: []byte("page image")})
	f.Add(good[:recordHeaderSize], good[recordHeaderSize:])
	gc := appendCommit(nil, CommitRecord{Model: 1, Seq: 7, NumPages: 2, Meta: []byte("meta")})
	f.Add(gc[:recordHeaderSize], gc[recordHeaderSize:])
	keep := appendCommit(nil, CommitRecord{Model: 1, Seq: 8, NumPages: 2}) // empty meta: directory unchanged
	f.Add(keep[:recordHeaderSize], keep[recordHeaderSize:])
	f.Add([]byte{}, []byte{})
	f.Add(make([]byte, recordHeaderSize), []byte{recCommit})

	f.Fuzz(func(t *testing.T, hdr, payload []byte) {
		pg, cm, isCommit, err := decodeRecord(hdr, payload)
		if err != nil {
			return
		}
		// A record that decodes re-encodes to the same bytes — the codec
		// round-trips, so replay and append agree on the format.
		var re []byte
		if isCommit {
			re = appendCommit(nil, cm)
		} else {
			re = appendPage(nil, pg)
		}
		if !bytes.Equal(re[:recordHeaderSize], hdr) || !bytes.Equal(re[recordHeaderSize:], payload) {
			t.Fatalf("decoded record does not re-encode to its input")
		}
	})
}
