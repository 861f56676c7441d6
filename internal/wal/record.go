package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record framing: every record is an 8-byte header — payload length and
// CRC-32C over the payload, both big-endian u32 — followed by the
// payload, whose first byte is the record type. The checksum covers the
// type byte too, so a record can never be misinterpreted as another kind
// by a bit flip. Torn tails fail either the length bound, the payload
// read or the checksum; the scanner stops at the first failure.
const (
	recordHeaderSize = 8

	recPage   = 1 // kind u8 | page u32 | page image
	recCommit = 2 // kind u8 | seq u64 | numPages u32 | metaLen u32 | meta

	// maxPayload bounds a decoded length prefix so a corrupt header
	// cannot drive a multi-gigabyte allocation. Generous: the largest
	// legitimate payload is one page image (a few KiB) or a meta blob
	// (a few MiB for paper-scale extensions).
	maxPayload = 1 << 28
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms this runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record that failed structural validation or its
// checksum. During replay it marks the torn tail: scanning stops and the
// log is truncated back to the last committed batch.
var ErrCorrupt = errors.New("wal: corrupt record")

// PageRecord is one page image of a commit batch, keyed by the storage
// model (store.Kind as a byte — this package stays below the store
// layer) and the device page number.
type PageRecord struct {
	Model byte
	Page  uint32
	Image []byte
}

// CommitRecord is the marker sealing one batch: replay applies the
// batch's page records only when it reads this. Seq is the global commit
// sequence (monotonic across checkpoints), NumPages the committed
// device size in pages, Meta the model's directory metadata snapshot —
// everything promotion needs beyond the page images themselves — or empty
// (metaLen 0, same framing) when the commit left the directory as the
// model's previous commit, else its checkpoint, had it.
type CommitRecord struct {
	Model    byte
	Seq      uint64
	NumPages uint32
	Meta     []byte
}

// Records are encoded in place in the log's reusable buffer: beginRecord
// reserves the header, the payload is appended after it, sealRecord
// patches length and checksum — no per-record payload slice.

// beginRecord reserves a record header at the end of buf and returns the
// extended buffer and the header's offset.
func beginRecord(buf []byte) ([]byte, int) {
	var hdr [recordHeaderSize]byte
	return append(buf, hdr[:]...), len(buf)
}

// sealRecord fills the header reserved at offset at: everything after it
// is the record's payload.
func sealRecord(buf []byte, at int) []byte {
	payload := buf[at+recordHeaderSize:]
	binary.BigEndian.PutUint32(buf[at:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[at+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// appendPage encodes one page record into buf.
func appendPage(buf []byte, r PageRecord) []byte {
	buf, at := beginRecord(buf)
	buf = append(buf, recPage, r.Model)
	buf = binary.BigEndian.AppendUint32(buf, r.Page)
	buf = append(buf, r.Image...)
	return sealRecord(buf, at)
}

// appendCommit encodes one commit marker into buf.
func appendCommit(buf []byte, c CommitRecord) []byte {
	buf, at := beginRecord(buf)
	buf = append(buf, recCommit, c.Model)
	buf = binary.BigEndian.AppendUint64(buf, c.Seq)
	buf = binary.BigEndian.AppendUint32(buf, c.NumPages)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Meta)))
	buf = append(buf, c.Meta...)
	return sealRecord(buf, at)
}

// decodePage decodes a page-record payload (without the type byte).
func decodePage(body []byte) (PageRecord, error) {
	if len(body) < 1+4 {
		return PageRecord{}, fmt.Errorf("%w: page record of %d bytes", ErrCorrupt, len(body))
	}
	return PageRecord{
		Model: body[0],
		Page:  binary.BigEndian.Uint32(body[1:5]),
		Image: body[5:],
	}, nil
}

// decodeCommit decodes a commit-marker payload (without the type byte).
func decodeCommit(body []byte) (CommitRecord, error) {
	if len(body) < 1+8+4+4 {
		return CommitRecord{}, fmt.Errorf("%w: commit record of %d bytes", ErrCorrupt, len(body))
	}
	c := CommitRecord{
		Model:    body[0],
		Seq:      binary.BigEndian.Uint64(body[1:9]),
		NumPages: binary.BigEndian.Uint32(body[9:13]),
	}
	metaLen := int(binary.BigEndian.Uint32(body[13:17]))
	if metaLen != len(body)-17 {
		return CommitRecord{}, fmt.Errorf("%w: commit meta length %d in %d-byte body", ErrCorrupt, metaLen, len(body))
	}
	c.Meta = body[17:]
	return c, nil
}

// decodeRecord validates one framed record (header + payload as laid out
// on the device) and decodes it into page or commit form. It is the
// single decode path shared by the replay scanner and the fuzz target.
func decodeRecord(hdr, payload []byte) (pg PageRecord, cm CommitRecord, isCommit bool, err error) {
	if len(hdr) != recordHeaderSize {
		return pg, cm, false, fmt.Errorf("%w: header of %d bytes", ErrCorrupt, len(hdr))
	}
	if want := binary.BigEndian.Uint32(hdr[0:4]); int(want) != len(payload) {
		return pg, cm, false, fmt.Errorf("%w: payload length %d, header says %d", ErrCorrupt, len(payload), want)
	}
	if want := binary.BigEndian.Uint32(hdr[4:8]); crc32.Checksum(payload, crcTable) != want {
		return pg, cm, false, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if len(payload) == 0 {
		return pg, cm, false, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	switch payload[0] {
	case recPage:
		pg, err = decodePage(payload[1:])
		return pg, cm, false, err
	case recCommit:
		cm, err = decodeCommit(payload[1:])
		return pg, cm, true, err
	default:
		return pg, cm, false, fmt.Errorf("%w: record type %d", ErrCorrupt, payload[0])
	}
}
