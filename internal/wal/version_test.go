package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// headerlessLog encodes three batches as a log was written before the
// header existed (version 0): records from offset 0, a full directory
// blob in every commit marker.
func headerlessLog() []byte {
	var raw []byte
	for i := byte(1); i <= 3; i++ {
		pages, c := testBatch(i, 2, 0x10*i)
		c.Seq = uint64(i)
		for _, p := range pages {
			raw = appendPage(raw, p)
		}
		raw = appendCommit(raw, c)
	}
	return raw
}

// futureLog is a whole log whose header names the version after this
// build's.
func futureLog() []byte {
	raw := binary.BigEndian.AppendUint32(logMagic[:], Version+1)
	pages, c := testBatch(1, 1, 0x11)
	c.Seq = 1
	return appendCommit(appendPage(raw, pages[0]), c)
}

// TestOpenReplaysHeaderlessLog pins version 0: a log without a header
// replays batch for batch, keeps its records where they are and appends
// after them, and takes the current header at its next Reset.
func TestOpenReplaysHeaderlessLog(t *testing.T) {
	raw := headerlessLog()
	dev := newMemDevice(raw)
	var got []batch
	l := mustOpen(t, dev, collector(&got))
	if len(got) != 3 || l.Size() != int64(len(raw)) || l.LastSeq() != 3 {
		t.Fatalf("headerless log: %d batches, size %d of %d, seq %d", len(got), l.Size(), len(raw), l.LastSeq())
	}
	for i, b := range got {
		if len(b.pages) != 2 || !bytes.Equal(b.commit.Meta, []byte{0xAB, 0x10 * byte(i+1)}) {
			t.Fatalf("batch %d replayed %d pages, meta %x", i, len(b.pages), b.commit.Meta)
		}
	}
	if !bytes.Equal(dev.bytes(), raw) {
		t.Fatal("Open rewrote a headerless log that holds commits")
	}
	p, c := testBatch(4, 1, 0x44)
	if _, err := l.Commit(p, c); err != nil {
		t.Fatal(err)
	}
	got = nil
	mustOpen(t, dev, collector(&got))
	if len(got) != 4 || !bytes.HasPrefix(dev.bytes(), raw) {
		t.Fatalf("a commit after a headerless log: %d batches on reopen, want 4", len(got))
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if h := dev.bytes(); len(h) != headerSize || !bytes.Equal(h[:4], logMagic[:]) || binary.BigEndian.Uint32(h[4:]) != Version {
		t.Fatalf("Reset left %x, want the version %d header", h, Version)
	}
}

// TestOpenRefusesFutureVersion pins that a log of an unknown version is
// refused by name and left as it was, never truncated as a torn tail.
func TestOpenRefusesFutureVersion(t *testing.T) {
	raw := futureLog()
	dev := newMemDevice(raw)
	if _, err := Open(dev, nil); !errors.Is(err, ErrFormat) {
		t.Fatalf("Open of a version %d log: %v, want ErrFormat", Version+1, err)
	}
	if !bytes.Equal(dev.bytes(), raw) {
		t.Fatal("a refused log was modified")
	}
}

// TestOpenWritesHeader pins that an empty log gets the current header
// and that a torn header is taken for an empty log.
func TestOpenWritesHeader(t *testing.T) {
	for _, raw := range [][]byte{nil, logMagic[:3], logMagic[:]} {
		dev := newMemDevice(raw)
		l := mustOpen(t, dev, nil)
		want := binary.BigEndian.AppendUint32(logMagic[:], Version)
		if !bytes.Equal(dev.bytes(), want) || l.Size() != headerSize {
			t.Fatalf("Open over %x left %x", raw, dev.bytes())
		}
	}
}
