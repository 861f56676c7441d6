package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Device is the storage the log appends to. *os.File satisfies it
// directly (the production path); tests substitute in-memory devices
// with fault injection and crash hooks. The log owns all offsets and
// never writes before its durable watermark; Sync must make every
// completed WriteAt durable.
type Device interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
}

// Version is the log format this build writes in the header — logMagic,
// then the version as a big-endian u32 — that starts the log. A log
// without one is version 0 and its records start at offset 0; no record
// can start with the magic, which reads as a length past maxPayload.
const Version = 1

const headerSize = 8

var logMagic = [4]byte{'C', 'O', 'W', 'L'}

// ErrFormat reports a log whose header names a version this build cannot
// read.
var ErrFormat = errors.New("wal: unknown log format")

// readHeader returns where the log's records start: past the header, or
// at 0 for a log without a whole one.
func readHeader(dev Device) (int64, error) {
	var h [headerSize]byte
	n, err := dev.ReadAt(h[:], 0)
	switch {
	case n < headerSize && err != nil && !errors.Is(err, io.EOF):
		return 0, fmt.Errorf("wal: read header: %w", err)
	case n < headerSize || [4]byte(h[:4]) != logMagic:
		return 0, nil
	case binary.BigEndian.Uint32(h[4:]) != Version:
		return 0, fmt.Errorf("%w: version %d, want %d or none", ErrFormat, binary.BigEndian.Uint32(h[4:]), Version)
	}
	return headerSize, nil
}

// writeHeader puts the current version's header at the start of dev.
func writeHeader(dev Device) error {
	h := binary.BigEndian.AppendUint32(logMagic[:], Version)
	if _, err := dev.WriteAt(h, 0); err != nil {
		return fmt.Errorf("wal: write header: %w", err)
	}
	return nil
}

// Stats is a point-in-time snapshot of the log's counters. These are
// observability values (served on /metrics); none of them is a paper
// counter — WAL traffic sits entirely outside the simulated device.
type Stats struct {
	// AppendedBytes counts bytes appended over the log's lifetime
	// (monotonic across Reset).
	AppendedBytes int64
	// PayloadBytes counts the dirty-page image bytes inside those
	// appends (monotonic across Reset). AppendedBytes / PayloadBytes is
	// the log's write amplification: framing, commit markers and the
	// full-page write granularity on top of the payload the commits
	// actually carried.
	PayloadBytes int64
	// Syncs counts device sync waves; with group commit this is the
	// interesting ratio against Commits.
	Syncs int64
	// Commits counts acknowledged (synced) commit batches.
	Commits int64
	// LastSeq is the sequence number of the last acknowledged commit
	// (monotonic across Reset, so acknowledgment accounting survives
	// checkpoints).
	LastSeq uint64
	// SizeBytes is the current log length on the device, header included.
	SizeBytes int64
}

// Log is the append-only write-ahead log. Safe for concurrent Commit
// calls: appends serialize under an internal lock, syncs batch into
// group-commit waves. See the package comment for the full contract.
type Log struct {
	mu  sync.Mutex // append lock: seq assignment, encode buffer, WriteAt, end
	dev Device
	end int64  // append offset; advances only on fully successful writes
	seq uint64 // last assigned commit sequence
	// enc is the encode buffer every Commit appends its batch into. It is
	// never shrunk, so it stays at the largest batch encoded so far (to
	// append's growth), for the log's life, Resets included. A batch is one
	// view's dirty pages, each a page record, and one commit marker with at
	// most the model's directory blob: the bound is the largest view's
	// device in pages plus one blob. Commits of query 3 are a few pages;
	// a structural update carries the blob, a few KiB up to a few MiB at
	// paper scale. Keeping it saves that allocation at every such commit.
	enc []byte

	// endDurable mirrors end for the sync leader (which must not take
	// the append lock while a Reset may be waiting out its wave).
	endDurable atomic.Int64

	sc struct {
		sync.Mutex
		cond    *sync.Cond
		synced  int64 // device offset covered by a completed sync
		syncing bool  // a sync wave is in flight
		err     error // error of the last completed wave (for its waiters)
	}

	appended atomic.Int64
	payload  atomic.Int64
	syncs    atomic.Int64
	commits  atomic.Int64
	lastSeq  atomic.Uint64

	// syncHook, when set, runs after every successful device sync with
	// the wave ordinal — the kill-after-N-syncs crash point of the
	// recovery test battery. Set before sharing the log.
	syncHook func(wave int64)
}

// Open scans the log on dev, replays every committed batch through
// apply (in append order; nil skips application), truncates whatever
// follows the last committed batch — torn tails from crashes mid-append
// as well as appended-but-uncommitted page records — and returns a log
// ready to append after it. A log without committed batches is left as
// an empty log of the current Version; one of an unknown version is
// refused with ErrFormat, untouched. Scanning stops at the first malformed
// record (bad length, short read, checksum mismatch): nothing past a
// bad checksum is ever replayed. Replay is idempotent: page images are
// absolute, so recovering an already-recovered log reapplies the same
// states.
func Open(dev Device, apply func(c CommitRecord, pages []PageRecord) error) (*Log, error) {
	l := &Log{dev: dev}
	l.sc.cond = sync.NewCond(&l.sc.Mutex)

	off, err := readHeader(dev)
	if err != nil {
		return nil, err
	}
	var (
		validEnd = off
		pending  []PageRecord
		hdr      [recordHeaderSize]byte
	)
	// readFull distinguishes a short read at end of device (a torn tail,
	// ends the scan) from a device error (aborts recovery: truncating on
	// a transient read fault could discard committed records).
	readFull := func(p []byte, at int64) (bool, error) {
		n, err := dev.ReadAt(p, at)
		if n >= len(p) {
			return true, nil
		}
		if err == nil || errors.Is(err, io.EOF) {
			return false, nil
		}
		return false, err
	}
	for {
		ok, err := readFull(hdr[:], off)
		if err != nil {
			return nil, fmt.Errorf("wal: read header at %d: %w", off, err)
		}
		if !ok {
			break // clean end of log, or a torn header
		}
		payloadLen := int(binary.BigEndian.Uint32(hdr[0:4]))
		if payloadLen > maxPayload {
			break // corrupt length prefix
		}
		payload := make([]byte, payloadLen)
		ok, err = readFull(payload, off+recordHeaderSize)
		if err != nil {
			return nil, fmt.Errorf("wal: read record at %d: %w", off, err)
		}
		if !ok {
			break // torn payload
		}
		pg, cm, isCommit, err := decodeRecord(hdr[:], payload)
		if err != nil {
			break // checksum or structural failure: the torn tail starts here
		}
		off += int64(recordHeaderSize + payloadLen)
		if !isCommit {
			pending = append(pending, pg)
			continue
		}
		if apply != nil {
			if err := apply(cm, pending); err != nil {
				return nil, fmt.Errorf("wal: replay commit %d: %w", cm.Seq, err)
			}
		}
		pending = pending[:0]
		validEnd = off
		l.seq = cm.Seq
	}
	// Drop everything past the last committed batch and make the cut
	// durable, so a later recovery cannot resurrect the discarded tail.
	if validEnd == 0 {
		if err := writeHeader(dev); err != nil {
			return nil, err
		}
		validEnd = headerSize
	}
	if err := dev.Truncate(validEnd); err != nil {
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if err := dev.Sync(); err != nil {
		return nil, fmt.Errorf("wal: sync after truncate: %w", err)
	}
	l.end = validEnd
	l.endDurable.Store(validEnd)
	l.sc.synced = validEnd
	l.lastSeq.Store(l.seq)
	return l, nil
}

// SetSyncHook installs the after-sync crash hook (tests only; see the
// syncHook field). Must be called before the log is shared.
func (l *Log) SetSyncHook(fn func(wave int64)) { l.syncHook = fn }

// SetSeq raises the commit sequence to at least seq. Checkpoints persist
// the last committed sequence and restore it here after reopening a
// truncated log, keeping sequence numbers monotonic across restarts.
// Never moves the sequence backwards. Call before the log is shared.
func (l *Log) SetSeq(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.seq {
		l.seq = seq
		l.lastSeq.Store(seq)
	}
}

// Commit appends one batch — the page images and their commit marker —
// and returns once a device sync covers it: an acknowledged commit is on
// stable storage. The sequence number is assigned here (c.Seq is
// overwritten) and returned. Concurrent commits are batched behind one
// sync wave (group commit). On a failed append the offset does not
// advance, so a retry overwrites the torn bytes.
func (l *Log) Commit(pages []PageRecord, c CommitRecord) (uint64, error) {
	l.mu.Lock()
	l.seq++
	c.Seq = l.seq
	buf := l.enc[:0]
	var payload int64
	for _, p := range pages {
		buf = appendPage(buf, p)
		payload += int64(len(p.Image))
	}
	buf = appendCommit(buf, c)
	l.enc = buf
	if _, err := l.dev.WriteAt(buf, l.end); err != nil {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: append commit %d: %w", c.Seq, err)
	}
	l.end += int64(len(buf))
	want := l.end
	l.endDurable.Store(l.end)
	l.mu.Unlock()
	l.appended.Add(int64(len(buf)))
	l.payload.Add(payload)

	if err := l.syncTo(want); err != nil {
		return 0, err
	}
	l.commits.Add(1)
	for {
		cur := l.lastSeq.Load()
		if c.Seq <= cur || l.lastSeq.CompareAndSwap(cur, c.Seq) {
			break
		}
	}
	return c.Seq, nil
}

// syncTo blocks until a completed sync covers offset want. At most one
// sync wave is in flight; latecomers wait on it and check whether its
// watermark covers them — the group-commit batching: n concurrent
// committers cost one or two syncs, not n.
func (l *Log) syncTo(want int64) error {
	s := &l.sc
	s.Lock()
	for s.synced < want {
		if s.syncing {
			s.cond.Wait()
			if s.err != nil && s.synced < want {
				err := s.err
				s.Unlock()
				return fmt.Errorf("wal: sync: %w", err)
			}
			continue
		}
		s.syncing = true
		s.err = nil
		s.Unlock()
		// The wave covers everything appended up to now, not just this
		// committer's offset — that is what batches the group.
		target := l.endDurable.Load()
		err := l.dev.Sync()
		wave := l.syncs.Add(1)
		if err == nil && l.syncHook != nil {
			l.syncHook(wave)
		}
		s.Lock()
		s.syncing = false
		if err == nil {
			if target > s.synced {
				s.synced = target
			}
		} else {
			s.err = err
		}
		s.cond.Broadcast()
		if err != nil {
			s.Unlock()
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	s.Unlock()
	return nil
}

// Reset truncates the log to its header, of the current version, once a
// checkpoint captured its contents. Sequence numbers keep increasing
// across resets. The caller
// must ensure no Commit is in flight (the facade's commit serialization
// does); an in-flight sync wave is waited out defensively.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.sc
	s.Lock()
	for s.syncing {
		s.cond.Wait()
	}
	defer s.Unlock()
	if err := l.dev.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if err := writeHeader(l.dev); err != nil {
		return err
	}
	if err := l.dev.Sync(); err != nil {
		return fmt.Errorf("wal: reset sync: %w", err)
	}
	l.end = headerSize
	l.endDurable.Store(headerSize)
	s.synced = headerSize
	return nil
}

// Stats returns a snapshot of the log counters.
func (l *Log) Stats() Stats {
	return Stats{
		AppendedBytes: l.appended.Load(),
		PayloadBytes:  l.payload.Load(),
		Syncs:         l.syncs.Load(),
		Commits:       l.commits.Load(),
		LastSeq:       l.lastSeq.Load(),
		SizeBytes:     l.endDurable.Load(),
	}
}

// Size returns the current log length on the device, header included
// (the checkpoint threshold input).
func (l *Log) Size() int64 { return l.endDurable.Load() }

// LastSeq returns the sequence of the last acknowledged commit.
func (l *Log) LastSeq() uint64 { return l.lastSeq.Load() }
