package heap

import (
	"errors"
	"fmt"
	"slices"

	"complexobj/internal/buffer"
	"complexobj/internal/disk"
	"complexobj/internal/page"
	"complexobj/internal/wire"
)

// RID identifies a record: page and slot.
type RID struct {
	Page disk.PageID
	Slot uint16
}

// String implements fmt.Stringer.
func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// ErrTooLarge reports a record that cannot fit any page; callers store such
// records in a longobj.Store instead.
var ErrTooLarge = errors.New("heap: record larger than a page")

// Heap is one record file.
type Heap struct {
	name string
	dev  *disk.Disk
	pool *buffer.Pool

	// The directory state AppendState serializes. pages grows by appending
	// only: an attached heap aliases the list it attached clipped, and
	// appends a copy.
	pages   []disk.PageID
	records int
	bytes   int64
	// at is the state the last Attach installed, which Changed compares
	// against: a copy, so an attached heap keeps no other heap alive.
	at struct {
		pages, records int
		bytes          int64
	}
	attached bool
}

// New creates an empty heap named name (for error messages and reports).
func New(dev *disk.Disk, pool *buffer.Pool, name string) *Heap {
	return &Heap{name: name, dev: dev, pool: pool}
}

// NumPages returns the number of pages, the paper's m parameter.
func (h *Heap) NumPages() int { return len(h.pages) }

// NumRecords returns the number of live records.
func (h *Heap) NumRecords() int { return h.records }

// Bytes returns the total bytes of live record payloads.
func (h *Heap) Bytes() int64 { return h.bytes }

// AvgRecordSize returns the mean record payload size, the paper's S_tuple.
func (h *Heap) AvgRecordSize() float64 {
	if h.records == 0 {
		return 0
	}
	return float64(h.bytes) / float64(h.records)
}

// TuplesPerPage returns records/pages, the paper's k parameter as realised
// on disk.
func (h *Heap) TuplesPerPage() float64 {
	if len(h.pages) == 0 {
		return 0
	}
	return float64(h.records) / float64(len(h.pages))
}

// StateLen returns the exact number of bytes AppendState appends, so a
// snapshot encoder can size its buffer once.
func (h *Heap) StateLen() int { return 4 + 4*len(h.pages) + 8 + 8 }

// AppendState serializes the heap's directory state (page list and record
// accounting) for a database snapshot. The records themselves live in the
// device pages and are not duplicated here.
func (h *Heap) AppendState(b []byte) []byte {
	b = wire.AppendU32(b, uint32(len(h.pages)))
	for _, p := range h.pages {
		b = wire.AppendU32(b, uint32(p))
	}
	b = wire.AppendU64(b, uint64(h.records))
	b = wire.AppendU64(b, uint64(h.bytes))
	return b
}

// RestoreState rebuilds the directory state from AppendState output. The
// heap must be empty and its device must already hold the page images.
func (h *Heap) RestoreState(r *wire.Reader) error {
	if len(h.pages) != 0 || h.records != 0 {
		return fmt.Errorf("heap %s: restore into non-empty heap", h.name)
	}
	n := r.Len(4) // one u32 PageID per page
	pages := make([]disk.PageID, n)
	for i := range pages {
		pages[i] = disk.PageID(r.U32())
	}
	records := int(r.U64())
	bytes := int64(r.U64())
	if err := r.Err(); err != nil {
		return fmt.Errorf("heap %s: %w", h.name, err)
	}
	h.pages, h.records, h.bytes = pages, records, bytes
	return nil
}

// Attach makes h's directory state that of from — a heap whose state no
// one writes any more: one without a device that RestoreState filled, or a
// loader's that a base took over; any number of heaps attach to it — in
// O(1). h keeps from's page list, never from itself.
func (h *Heap) Attach(from *Heap) {
	h.pages, h.records, h.bytes = slices.Clip(from.pages), from.records, from.bytes
	h.at.pages, h.at.records, h.at.bytes, h.attached = len(from.pages), from.records, from.bytes, true
}

// Changed reports whether AppendState has moved off what Attach installed
// (always, on a heap never attached); page lists of one length are equal.
func (h *Heap) Changed() bool {
	return !h.attached || len(h.pages) != h.at.pages || h.records != h.at.records || h.bytes != h.at.bytes
}

// Sizer counts the pages a sequence of Inserts into an empty heap will
// allocate, without a device: the sizing pass of a bulk load. It packs
// records exactly as Insert does (tail page first, else a fresh page). The
// zero Sizer counts an empty heap.
type Sizer struct {
	pages int
	tail  page.Packing
}

// Add accounts for one record of n bytes.
func (z *Sizer) Add(n int) {
	if z.pages == 0 || !z.tail.Add(n) {
		z.pages++
		z.tail = page.NewPacking()
		z.tail.Add(n)
	}
}

// Pages returns the pages the records added so far occupy.
func (z *Sizer) Pages() int { return z.pages }

// Insert appends rec to the heap and returns its RID. Records of one
// object inserted consecutively land on the same or adjacent pages.
func (h *Heap) Insert(rec []byte) (RID, error) {
	if len(rec) > page.Capacity {
		return RID{}, fmt.Errorf("%w: %d bytes in %s", ErrTooLarge, len(rec), h.name)
	}
	if len(h.pages) > 0 {
		tail := h.pages[len(h.pages)-1]
		rid, ok, err := h.tryInsert(tail, rec)
		if err != nil {
			return RID{}, err
		}
		if ok {
			return rid, nil
		}
	}
	pid, err := h.dev.Allocate(1)
	if err != nil {
		return RID{}, err
	}
	f, err := h.pool.Fix(pid)
	if err != nil {
		return RID{}, err
	}
	h.pool.MarkDirty(f)
	page.Wrap(f.Data).Init()
	h.pool.Unfix(pid, true)
	h.pages = append(h.pages, pid)
	rid, ok, err := h.tryInsert(pid, rec)
	if err != nil {
		return RID{}, err
	}
	if !ok {
		return RID{}, fmt.Errorf("heap %s: record of %d bytes rejected by fresh page", h.name, len(rec))
	}
	return rid, nil
}

func (h *Heap) tryInsert(pid disk.PageID, rec []byte) (RID, bool, error) {
	f, err := h.pool.Fix(pid)
	if err != nil {
		return RID{}, false, err
	}
	if !page.Wrap(f.Data).CanFit(len(rec)) {
		h.pool.Unfix(pid, false)
		return RID{}, false, nil
	}
	h.pool.MarkDirty(f) // promotes a borrowed frame; re-wrap below
	slot, err := page.Wrap(f.Data).Insert(rec)
	if err != nil {
		h.pool.Unfix(pid, false)
		return RID{}, false, err
	}
	h.pool.Unfix(pid, true)
	h.records++
	h.bytes += int64(len(rec))
	return RID{Page: pid, Slot: uint16(slot)}, true, nil
}

// View calls fn with a direct view of the record (one page fix, no
// copy); fn must not retain the slice.
func (h *Heap) View(rid RID, fn func(rec []byte) error) error {
	f, err := h.pool.Fix(rid.Page)
	if err != nil {
		return err
	}
	defer h.pool.Unfix(rid.Page, false)
	rec, err := page.Wrap(f.Data).Get(int(rid.Slot))
	if err != nil {
		return fmt.Errorf("heap %s: %w", h.name, err)
	}
	return fn(rec)
}

// Update replaces the record at rid in place. The new record must still
// fit the page (the benchmark only performs size-preserving root updates;
// growth within the page is supported, cross-page relocation is not).
func (h *Heap) Update(rid RID, rec []byte) error {
	f, err := h.pool.Fix(rid.Page)
	if err != nil {
		return err
	}
	old, err := page.Wrap(f.Data).Get(int(rid.Slot))
	if err != nil {
		h.pool.Unfix(rid.Page, false)
		return fmt.Errorf("heap %s: %w", h.name, err)
	}
	oldLen := len(old)
	h.pool.MarkDirty(f) // promotes a borrowed frame; re-wrap below
	if err := page.Wrap(f.Data).Update(int(rid.Slot), rec); err != nil {
		h.pool.Unfix(rid.Page, false)
		return fmt.Errorf("heap %s: %w", h.name, err)
	}
	h.bytes += int64(len(rec) - oldLen)
	h.pool.Unfix(rid.Page, true)
	return nil
}

// Delete removes the record at rid; its page space is reclaimed for later
// inserts on the same page. The heap does not reuse fully emptied pages
// for new clusters (clusters always append), matching the bulk-load-plus-
// updates lifecycle of the benchmark store.
func (h *Heap) Delete(rid RID) error {
	f, err := h.pool.Fix(rid.Page)
	if err != nil {
		return err
	}
	old, err := page.Wrap(f.Data).Get(int(rid.Slot))
	if err != nil {
		h.pool.Unfix(rid.Page, false)
		return fmt.Errorf("heap %s: %w", h.name, err)
	}
	oldLen := len(old)
	h.pool.MarkDirty(f) // promotes a borrowed frame; re-wrap below
	if err := page.Wrap(f.Data).Delete(int(rid.Slot)); err != nil {
		h.pool.Unfix(rid.Page, false)
		return fmt.Errorf("heap %s: %w", h.name, err)
	}
	h.records--
	h.bytes -= int64(oldLen)
	h.pool.Unfix(rid.Page, true)
	return nil
}

// Scan iterates over all records in physical order, one page fix per page
// (the DASDBS single-page-per-call access path). fn receives a view into
// the page; returning false stops the scan.
func (h *Heap) Scan(fn func(rid RID, rec []byte) bool) error { return h.ScanPages(fn, nil) }

// ScanPages is Scan with a hook that runs after each page is unfixed, when
// the scan pins no frame: work a page's records produced that may fix
// pages of its own — on a buffer of one frame, say — waits for it. The
// hook runs after the page whose fn stopped the scan too, and an error it
// returns ends the scan. A nil hook is Scan.
func (h *Heap) ScanPages(fn func(rid RID, rec []byte) bool, unfixed func() error) error {
	for _, pid := range h.pages {
		f, err := h.pool.Fix(pid)
		if err != nil {
			return err
		}
		stop := false
		page.Wrap(f.Data).Range(func(slot int, rec []byte) bool {
			if !fn(RID{Page: pid, Slot: uint16(slot)}, rec) {
				stop = true
				return false
			}
			return true
		})
		h.pool.Unfix(pid, false)
		if unfixed != nil {
			if err := unfixed(); err != nil {
				return err
			}
		}
		if stop {
			return nil
		}
	}
	return nil
}
