package page

import (
	"encoding/binary"
	"errors"
	"fmt"

	"complexobj/internal/disk"
)

const (
	headerSize  = 6
	slotSize    = 4
	delSentinel = 0xFFFF
)

var (
	// ErrPageFull reports that the record does not fit even after compaction.
	ErrPageFull = errors.New("page: full")
	// ErrBadSlot reports access to a slot that does not exist or was deleted.
	ErrBadSlot = errors.New("page: bad slot")
	// ErrTooLarge reports a record that can never fit an empty page.
	ErrTooLarge = errors.New("page: record larger than page capacity")
)

// Page is a view over one raw page buffer. It does not own the buffer, so
// wrapping a buffer pool frame and mutating through Page mutates the frame.
type Page struct {
	buf []byte // payload area (raw page minus system header)
}

// Wrap interprets a raw page image (including its system header) as a
// slotted page. Call Init once on fresh pages.
func Wrap(raw []byte) Page {
	if len(raw) <= disk.SysHeaderSize {
		panic("page: raw buffer smaller than system header")
	}
	return Page{buf: raw[disk.SysHeaderSize:]}
}

// Capacity is the maximum record bytes a single empty page can hold
// (payload minus header and one slot).
const Capacity = disk.DefaultPageSize - disk.SysHeaderSize - headerSize - slotSize

// Packing predicts, in plain arithmetic, how Insert fills one page that
// never sees a Delete or a resizing Update — a page under bulk load. It
// is what a sizing pass counts pages with before any page exists.
type Packing struct {
	free int // bytes left between the slot directory and the records
}

// NewPacking describes a freshly formatted page.
func NewPacking() Packing {
	return Packing{free: disk.DefaultPageSize - disk.SysHeaderSize - headerSize}
}

// Add accounts for one record of n bytes and its slot; false means the
// record does not fit (CanFit would say no) and nothing changed.
func (p *Packing) Add(n int) bool {
	if n+slotSize > p.free {
		return false
	}
	p.free -= n + slotSize
	return true
}

// Init formats the page as an empty slotted page.
func (p Page) Init() {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.setNumSlots(0)
	p.setFreeEnd(uint16(len(p.buf)))
	p.setGarbage(0)
}

func (p Page) numSlots() int       { return int(binary.BigEndian.Uint16(p.buf[0:2])) }
func (p Page) setNumSlots(n int)   { binary.BigEndian.PutUint16(p.buf[0:2], uint16(n)) }
func (p Page) freeEnd() int        { return int(binary.BigEndian.Uint16(p.buf[2:4])) }
func (p Page) setFreeEnd(v uint16) { binary.BigEndian.PutUint16(p.buf[2:4], v) }
func (p Page) garbage() int        { return int(binary.BigEndian.Uint16(p.buf[4:6])) }
func (p Page) setGarbage(v int)    { binary.BigEndian.PutUint16(p.buf[4:6], uint16(v)) }

func (p Page) slot(i int) (off, length int) {
	base := headerSize + slotSize*i
	return int(binary.BigEndian.Uint16(p.buf[base : base+2])),
		int(binary.BigEndian.Uint16(p.buf[base+2 : base+4]))
}

func (p Page) setSlot(i, off, length int) {
	base := headerSize + slotSize*i
	binary.BigEndian.PutUint16(p.buf[base:base+2], uint16(off))
	binary.BigEndian.PutUint16(p.buf[base+2:base+4], uint16(length))
}

// contiguousFree returns the bytes between the slot directory and freeEnd.
func (p Page) contiguousFree() int {
	return p.freeEnd() - headerSize - slotSize*p.numSlots()
}

// FreeFor reports the bytes available for one new record of any size,
// counting the slot directory entry it may need and reclaimable garbage.
func (p Page) FreeFor() int {
	free := p.contiguousFree() + p.garbage()
	if p.freeDeletedSlot() < 0 {
		free -= slotSize
	}
	if free < 0 {
		return 0
	}
	return free
}

// CanFit reports whether a record of n bytes fits (possibly after
// compaction).
func (p Page) CanFit(n int) bool { return n <= p.FreeFor() }

func (p Page) freeDeletedSlot() int {
	for i := 0; i < p.numSlots(); i++ {
		if off, _ := p.slot(i); off == delSentinel {
			return i
		}
	}
	return -1
}

// Insert stores rec and returns its slot number.
func (p Page) Insert(rec []byte) (int, error) {
	if len(rec) > len(p.buf)-headerSize-slotSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(rec))
	}
	slot := p.freeDeletedSlot()
	needSlot := 0
	if slot < 0 {
		needSlot = slotSize
	}
	if p.contiguousFree() < len(rec)+needSlot {
		if p.contiguousFree()+p.garbage() < len(rec)+needSlot {
			return 0, fmt.Errorf("%w: need %d, free %d", ErrPageFull, len(rec), p.FreeFor())
		}
		p.compact()
		if p.contiguousFree() < len(rec)+needSlot {
			return 0, fmt.Errorf("%w: need %d after compaction", ErrPageFull, len(rec))
		}
	}
	if slot < 0 {
		slot = p.numSlots()
		p.setNumSlots(slot + 1)
	}
	off := p.freeEnd() - len(rec)
	copy(p.buf[off:], rec)
	p.setFreeEnd(uint16(off))
	p.setSlot(slot, off, len(rec))
	return slot, nil
}

// Get returns a view of the record in slot i. The view aliases the page
// buffer; callers that retain the bytes must copy them.
func (p Page) Get(i int) ([]byte, error) {
	if i < 0 || i >= p.numSlots() {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.numSlots())
	}
	off, length := p.slot(i)
	if off == delSentinel {
		return nil, fmt.Errorf("%w: %d deleted", ErrBadSlot, i)
	}
	return p.buf[off : off+length], nil
}

// Update replaces the record in slot i. Same-size updates happen in place;
// resizing updates relocate within the page and may trigger compaction.
func (p Page) Update(i int, rec []byte) error {
	if i < 0 || i >= p.numSlots() {
		return fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.numSlots())
	}
	off, length := p.slot(i)
	if off == delSentinel {
		return fmt.Errorf("%w: %d deleted", ErrBadSlot, i)
	}
	if len(rec) == length {
		copy(p.buf[off:], rec)
		return nil
	}
	if len(rec) < length {
		// Shrink in place: keep the record at the same offset tail-aligned
		// to its old slot to avoid moving bytes; account the slack as
		// garbage.
		copy(p.buf[off:], rec)
		p.setSlot(i, off, len(rec))
		p.setGarbage(p.garbage() + (length - len(rec)))
		return nil
	}
	// Grow: logically delete, then insert at the free area.
	p.setSlot(i, delSentinel, 0)
	p.setGarbage(p.garbage() + length)
	if p.contiguousFree() < len(rec) {
		if p.contiguousFree()+p.garbage() < len(rec) {
			// Roll back the logical delete so the page stays consistent.
			p.setSlot(i, off, length)
			p.setGarbage(p.garbage() - length)
			return fmt.Errorf("%w: grow %d->%d", ErrPageFull, length, len(rec))
		}
		p.compact()
	}
	noff := p.freeEnd() - len(rec)
	copy(p.buf[noff:], rec)
	p.setFreeEnd(uint16(noff))
	p.setSlot(i, noff, len(rec))
	return nil
}

// Delete removes the record in slot i. The slot number may be reused by a
// later Insert.
func (p Page) Delete(i int) error {
	if i < 0 || i >= p.numSlots() {
		return fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.numSlots())
	}
	off, length := p.slot(i)
	if off == delSentinel {
		return fmt.Errorf("%w: %d already deleted", ErrBadSlot, i)
	}
	p.setSlot(i, delSentinel, 0)
	p.setGarbage(p.garbage() + length)
	return nil
}

// compact rewrites all live records flush against the payload end,
// reclaiming garbage from deletions and resizes.
func (p Page) compact() {
	type rec struct {
		slot, off, length int
	}
	var live []rec
	for i := 0; i < p.numSlots(); i++ {
		off, length := p.slot(i)
		if off != delSentinel {
			live = append(live, rec{i, off, length})
		}
	}
	// Copy records out, then lay them back down from the end. The scratch
	// buffer is small (one page) and compaction is rare, so simplicity wins
	// over an in-place sliding scheme.
	scratch := make([]byte, len(p.buf))
	end := len(p.buf)
	for _, r := range live {
		copy(scratch[end-r.length:end], p.buf[r.off:r.off+r.length])
		end -= r.length
	}
	copy(p.buf[end:], scratch[end:])
	cur := len(p.buf)
	for _, r := range live {
		cur -= r.length
		p.setSlot(r.slot, cur, r.length)
	}
	p.setFreeEnd(uint16(cur))
	p.setGarbage(0)
}

// Range calls fn for every live record in slot order. fn receives a view
// into the page buffer; it must not retain it. Iteration stops early when
// fn returns false.
func (p Page) Range(fn func(slot int, rec []byte) bool) {
	for i := 0; i < p.numSlots(); i++ {
		off, length := p.slot(i)
		if off == delSentinel {
			continue
		}
		if !fn(i, p.buf[off:off+length]) {
			return
		}
	}
}
