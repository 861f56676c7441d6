package longobj

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"complexobj/internal/buffer"
	"complexobj/internal/disk"
	"complexobj/internal/heap"
	"complexobj/internal/page"
	"complexobj/internal/wire"
)

// Component is one tagged piece of an object. Tags are defined by the
// storage model (e.g. root record vs platform vs sightseeing).
type Component struct {
	Tag  uint8
	Data []byte
}

// Ref addresses a stored object. It is the paper's "address" OID for
// direct storage models.
type Ref struct {
	Small       bool
	RID         heap.RID    // when Small
	Start       disk.PageID // when large: first header page
	HeaderPages uint16
	DataPages   uint16
}

// Pages returns the total number of pages the object occupies (1 for small
// objects, though that page is shared with other objects).
func (r Ref) Pages() int {
	if r.Small {
		return 1
	}
	return int(r.HeaderPages) + int(r.DataPages)
}

// Errors returned by the store.
var (
	ErrResize  = errors.New("longobj: replacement changes page layout")
	ErrBadRef  = errors.New("longobj: invalid reference")
	ErrBadComp = errors.New("longobj: invalid component index")
	ErrSameLen = errors.New("longobj: in-place change must preserve length")
)

// directory prologue: u16 component count + u32 total data bytes.
const dirPrologue = 6

// directory entry: u8 tag + u32 offset + u32 length.
const dirEntry = 9

// small-object inline encoding: u16 count, then per component u8 tag +
// u16 length, then the concatenated data.
const inlinePrologue = 2
const inlineEntry = 3

// pageRun is a contiguous run of recyclable pages in the free-space map.
type pageRun struct {
	start disk.PageID
	n     int
}

// Store manages small and large objects over one device/pool pair.
type Store struct {
	dev    *disk.Disk
	pool   *buffer.Pool
	shared *heap.Heap

	counts // with free and shared's state, what AppendState serializes
	// free is the free-space map: the page runs released by relocating
	// replacements, sorted by start and with adjacent runs merged. New
	// large objects take a first fit from here before extending the
	// device, so relocation-heavy workloads reach a stable device size
	// instead of growing the arena unboundedly.
	free []pageRun
	// at and atFree are the state the last Attach installed, which Changed
	// compares against: copied, so an attached store keeps no other store
	// alive.
	at       counts
	atFree   []pageRun
	attached bool

	// Scratch buffers reused across calls. A Store, like the engine it
	// belongs to, has a single owner (workers and views never share one),
	// so the reuse is safe: hdrScratch backs readHeader, idScratch the page
	// list of the read in progress, spanScratch the directory walk, and
	// idxScratch/compScratch/blockScratch the result of Read (valid only
	// until the next one). imgBlock/imgScratch
	// are the page images compose lays a large object out in and
	// recScratch the record of a small one: write-only staging for
	// WriteRun, frame payloads and heap pages, never returned to a caller.
	hdrScratch   []byte
	idScratch    []disk.PageID
	spanScratch  []dirSpan
	idxScratch   []int
	compScratch  []Component
	blockScratch []byte
	imgBlock     []byte
	imgScratch   [][]byte
	recScratch   []byte
}

// counts is the object and page accounting of a store.
type counts struct {
	large       int
	headerPages int
	dataPages   int
	dataBytes   int64
	// freedPages is the number of pages sitting in the free-space map:
	// dead space released by relocating replacements that the next
	// large-object inserts will recycle.
	freedPages int
}

// New creates a store whose small objects live in a shared heap called
// name.
func New(dev *disk.Disk, pool *buffer.Pool, name string) *Store {
	return &Store{dev: dev, pool: pool, shared: heap.New(dev, pool, name)}
}

// Attach makes s's directory state that of from — a store whose state no
// one writes any more: one without a device that RestoreState filled, or a
// loader's that a base took over; any number of stores attach to it. The
// free-space map, edited in place, is copied: it holds relocation
// leftovers only, so attaching stays O(1) in the extension. s keeps
// from's state, never from itself.
func (s *Store) Attach(from *Store) {
	s.counts, s.free = from.counts, append(s.free[:0], from.free...)
	s.at, s.atFree, s.attached = from.counts, from.free, true
	s.shared.Attach(from.shared)
}

// Changed reports whether AppendState has moved off what Attach installed
// (always, on a store never attached). In-place replacements keep it.
func (s *Store) Changed() bool {
	return !s.attached || s.counts != s.at || !slices.Equal(s.free, s.atFree) || s.shared.Changed()
}

// SharedHeap exposes the heap of small objects (for size reporting).
func (s *Store) SharedHeap() *heap.Heap { return s.shared }

// NumLarge returns the number of large (multi-page) objects.
func (s *Store) NumLarge() int { return s.large }

// LargePages returns total header and data pages of all large objects.
func (s *Store) LargePages() (header, data int) { return s.headerPages, s.dataPages }

// LargeDataBytes returns the total component payload bytes of all large
// objects (for size reporting).
func (s *Store) LargeDataBytes() int64 { return s.dataBytes }

// TotalPages returns every page the store occupies: shared heap pages plus
// the header and data pages of large objects (the paper's m for a
// direct-storage relation).
func (s *Store) TotalPages() int {
	return s.shared.NumPages() + s.headerPages + s.dataPages
}

// effSize returns usable payload bytes per page.
func (s *Store) effSize() int { return s.dev.EffectivePageSize() }

// inlineLen returns the size of the small-object record of nComps
// components totalling total bytes.
func inlineLen(nComps, total int) int { return inlinePrologue + inlineEntry*nComps + total }

// inlineSize returns the encoded size of comps as a small-object record.
func inlineSize(comps []Component) int {
	total := 0
	for _, c := range comps {
		total += len(c.Data)
	}
	return inlineLen(len(comps), total)
}

// Insert stores the object and returns its address. Small objects share
// slotted pages; large objects are bulk-written to a fresh contiguous run
// (load-time I/O, reset by the harness before measuring).
func (s *Store) Insert(comps []Component) (Ref, error) {
	if len(comps) == 0 {
		return Ref{}, errors.New("longobj: object needs at least one component")
	}
	if inlineSize(comps) <= page.Capacity {
		rec := s.encodeInline(comps)
		rid, err := s.shared.Insert(rec)
		if err != nil {
			return Ref{}, err
		}
		return Ref{Small: true, RID: rid}, nil
	}
	return s.insertLarge(comps)
}

// Sizer counts the pages a sequence of Inserts into an empty store will
// occupy — shared heap pages for small objects, page runs for large ones
// — from the objects' shapes alone: the sizing pass of a bulk load. The
// zero Sizer counts an empty store.
type Sizer struct {
	shared heap.Sizer
	large  int
}

// Add accounts for one object of nComps components totalling total bytes.
func (z *Sizer) Add(nComps, total int) {
	if rec := inlineLen(nComps, total); rec <= page.Capacity {
		z.shared.Add(rec)
		return
	}
	h, d := largeLayout(disk.DefaultPageSize-disk.SysHeaderSize, nComps, total)
	z.large += h + d
}

// Pages returns the pages the objects added so far occupy.
func (z *Sizer) Pages() int { return z.shared.Pages() + z.large }

// encodeInline returns the small-object record of comps, in the store's
// record scratch: the heap copies it into its page and retains nothing.
func (s *Store) encodeInline(comps []Component) []byte {
	dst := append(s.recScratch[:0], byte(len(comps)>>8), byte(len(comps)))
	for _, c := range comps {
		dst = append(dst, c.Tag, byte(len(c.Data)>>8), byte(len(c.Data)))
	}
	for _, c := range comps {
		dst = append(dst, c.Data...)
	}
	s.recScratch = dst
	return dst
}

// largeLayout returns the header and data pages of a large object with
// nComps components totalling total bytes, at eff payload bytes per page.
// Insert, ReplaceAll and Sizer all size objects with it, so a sizing pass
// cannot drift from what an insert occupies.
func largeLayout(eff, nComps, total int) (headerPages, dataPages int) {
	headerPages = (dirPrologue + dirEntry*nComps + eff - 1) / eff
	return headerPages, max(1, (total+eff-1)/eff)
}

// measure sizes comps as a large object.
func (s *Store) measure(comps []Component) (headerPages, dataPages, total int) {
	for _, c := range comps {
		total += len(c.Data)
	}
	headerPages, dataPages = largeLayout(s.effSize(), len(comps), total)
	return headerPages, dataPages, total
}

// compose lays a measured object out as page images in the store's image
// scratch: the directory across the header pages, the component bytes
// back to back across the data pages, straight from comps. The images
// are staging only, valid until the next compose: WriteRun and the frame
// copy in ReplaceAll take the bytes and retain nothing.
func (s *Store) compose(comps []Component, headerPages, dataPages, total int) [][]byte {
	ps, eff := disk.DefaultPageSize, s.effSize()
	n := headerPages + dataPages
	if cap(s.imgBlock) < n*ps {
		s.imgBlock = make([]byte, n*ps)
	}
	block := s.imgBlock[:n*ps]
	clear(block) // padding and system headers are zero on disk
	images := s.imgScratch[:0]
	for i := 0; i < n; i++ {
		images = append(images, block[i*ps:(i+1)*ps:(i+1)*ps])
	}
	s.imgScratch = images

	var e [dirEntry]byte
	binary.BigEndian.PutUint16(e[:], uint16(len(comps)))
	binary.BigEndian.PutUint32(e[2:], uint32(total))
	spill(images, eff, 0, e[:dirPrologue])
	off := 0
	for i, c := range comps {
		e[0] = c.Tag
		binary.BigEndian.PutUint32(e[1:], uint32(off))
		binary.BigEndian.PutUint32(e[5:], uint32(len(c.Data)))
		spill(images, eff, dirPrologue+dirEntry*i, e[:])
		spill(images[headerPages:], eff, off, c.Data)
		off += len(c.Data)
	}
	return images
}

// spill copies b into the payload areas of images, at offset pos of the
// byte stream they hold (eff bytes per page).
func spill(images [][]byte, eff, pos int, b []byte) {
	for len(b) > 0 {
		n := copy(images[pos/eff][disk.SysHeaderSize+pos%eff:], b)
		b, pos = b[n:], pos+n
	}
}

func (s *Store) insertLarge(comps []Component) (Ref, error) {
	headerPages, dataPages, total := s.measure(comps)
	if headerPages > 0xFFFF || dataPages > 0xFFFF {
		return Ref{}, fmt.Errorf("longobj: object too large: %d header, %d data pages", headerPages, dataPages)
	}
	start, err := s.claimRun(headerPages + dataPages)
	if err != nil {
		return Ref{}, err
	}
	if err := s.dev.WriteRun(start, s.compose(comps, headerPages, dataPages, total)); err != nil {
		// The run is claimed but references nothing: back to the map, as
		// claimRun itself does, or a failed write leaks it for good.
		s.freeRun(start, headerPages+dataPages)
		return Ref{}, err
	}
	s.large++
	s.headerPages += headerPages
	s.dataPages += dataPages
	s.dataBytes += int64(total)
	return Ref{Start: start, HeaderPages: uint16(headerPages), DataPages: uint16(dataPages)}, nil
}

// dirEntryAt decodes directory entry i from the header byte stream.
func dirEntryAt(hdr []byte, i int) (tag uint8, off, length int, err error) {
	base := dirPrologue + dirEntry*i
	if base+dirEntry > len(hdr) {
		return 0, 0, 0, fmt.Errorf("%w: directory entry %d", ErrBadRef, i)
	}
	return hdr[base],
		int(binary.BigEndian.Uint32(hdr[base+1:])),
		int(binary.BigEndian.Uint32(hdr[base+5:])),
		nil
}

// chunkSize bounds how many pages are pinned at once; objects larger than
// the pool are processed run by run (extra I/O calls only arise for
// objects bigger than the whole cache, which the benchmark never creates).
func (s *Store) chunkSize() int {
	c := s.pool.Capacity() / 2
	if c < 1 {
		c = 1
	}
	return c
}

// visitPages fixes the given pages in bounded contiguous chunks, invokes
// visit with each page's payload (index into ids, payload view), and
// unfixes immediately after the chunk is consumed. Pages of one chunk are
// fetched with a single I/O call when contiguous on disk. dirty marks
// every visited page dirty.
func (s *Store) visitPages(ids []disk.PageID, dirty bool, visit func(i int, payload []byte)) error {
	chunk := s.chunkSize()
	for start := 0; start < len(ids); start += chunk {
		end := start + chunk
		if end > len(ids) {
			end = len(ids)
		}
		frames, err := s.pool.FixRun(ids[start:end])
		if err != nil {
			return err
		}
		for i, f := range frames {
			if dirty {
				s.pool.MarkDirty(f) // promotes a borrowed frame before visit mutates
			}
			visit(start+i, f.Data[disk.SysHeaderSize:])
		}
		for _, id := range ids[start:end] {
			if err := s.pool.Unfix(id, dirty); err != nil {
				return err
			}
		}
	}
	return nil
}

// readHeader fetches the header pages (one I/O call: "DASDBS uses separate
// I/O calls to retrieve the root page ... the additional header pages ...
// and the data pages") and returns a copy of the directory they hold: the
// prologue and as many entries as it announces, capped at what the header
// pages hold — dirEntryAt answers a count beyond that with ErrBadRef.
func (s *Store) readHeader(ref Ref) ([]byte, error) {
	if ref.HeaderPages == 0 {
		return nil, fmt.Errorf("%w: no header page", ErrBadRef)
	}
	eff := s.effSize()
	var hdr []byte // sized by the first page; no call path reads two headers at once
	err := s.visitPages(s.pageRun(ref.Start, int(ref.HeaderPages)), false, func(i int, payload []byte) {
		if i == 0 {
			most := int(ref.HeaderPages) * eff
			need := min(dirPrologue+dirEntry*int(binary.BigEndian.Uint16(payload)), most)
			if cap(s.hdrScratch) < need {
				s.hdrScratch = make([]byte, most) // once per header size, not per directory length
			}
			poisonScratch(s.hdrScratch)
			hdr = s.hdrScratch[:need]
		}
		if lo := i * eff; lo < len(hdr) {
			copy(hdr[lo:], payload)
		}
	})
	return hdr, err
}

// dirSpan is one directory entry resolved to its data-area interval.
type dirSpan struct {
	off, end int
	idx      int // position in the object's directory
	tag      uint8
}

// pageRun returns the IDs of the n pages starting at start, in the store's
// page-list scratch: the list is valid until the next pageRun, which every
// read path below respects by finishing one visitPages before asking for
// the next list.
func (s *Store) pageRun(start disk.PageID, n int) []disk.PageID {
	ids := s.idScratch[:0]
	for i := 0; i < n; i++ {
		ids = append(ids, start+disk.PageID(i))
	}
	s.idScratch = ids
	return ids
}

// spanPages returns, sorted and in the page-list scratch like pageRun's,
// the IDs of the pages of the data area starting at dataStart that hold a
// byte of some span.
func (s *Store) spanPages(spans []dirSpan, dataStart disk.PageID) []disk.PageID {
	eff := s.effSize()
	ids := s.idScratch[:0]
	for _, sp := range spans {
		for pg := sp.off / eff; sp.end > sp.off && pg <= (sp.end-1)/eff; pg++ {
			ids = append(ids, dataStart+disk.PageID(pg))
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	s.idScratch = ids
	return ids
}

// readSpans reads the object's header, rejects a directory with an entry
// that reaches beyond the data area — whether or not it is selected — and
// resolves the entries selected by want (nil selects all) into the span
// scratch. It returns the spans and their total payload bytes.
func (s *Store) readSpans(ref Ref, want func(tag uint8, idx int) bool) ([]dirSpan, int, error) {
	hdr, err := s.readHeader(ref)
	if err != nil {
		return nil, 0, err
	}
	n := int(binary.BigEndian.Uint16(hdr))
	dataLen := int(ref.DataPages) * s.effSize()
	spans := s.spanScratch[:0]
	total := 0
	for i := 0; i < n; i++ {
		tag, off, length, err := dirEntryAt(hdr, i)
		if err != nil {
			return nil, 0, err
		}
		if off+length > dataLen {
			return nil, 0, fmt.Errorf("%w: component %d beyond data", ErrBadRef, i)
		}
		if want != nil && !want(tag, i) {
			continue
		}
		spans = append(spans, dirSpan{off: off, end: off + length, idx: i, tag: tag})
		total += length
	}
	s.spanScratch = spans
	return spans, total, nil
}

// fillSpans cuts one component per span out of the block scratch, fixes the
// given pages of the object's data area, which starts at page dataStart,
// and copies the spans' bytes out of them. A page no span reaches is fixed
// and left unread; a selected byte is moved exactly once. The spans'
// directory indices come back in the index scratch.
func (s *Store) fillSpans(spans []dirSpan, total int, dataStart disk.PageID, ids []disk.PageID) ([]Component, []int, error) {
	comps, block := s.resultScratch(len(spans), total)
	idxs := slices.Grow(s.idxScratch[:0], len(spans))
	pos := 0
	for i, sp := range spans {
		length := sp.end - sp.off
		comps[i] = Component{Tag: sp.tag, Data: block[pos : pos+length : pos+length]}
		idxs = append(idxs, sp.idx)
		pos += length
	}
	s.idxScratch = idxs
	eff := s.effSize()
	err := s.visitPages(ids, false, func(p int, payload []byte) {
		pageLo := int(ids[p]-dataStart) * eff
		for i := range spans {
			lo, hi := max(spans[i].off, pageLo), min(spans[i].end, pageLo+eff)
			if lo < hi {
				copy(comps[i].Data[lo-spans[i].off:], payload[lo-pageLo:hi-pageLo])
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return comps, idxs, nil
}

// resultScratch returns the component list and data block a read cuts its
// result from.
func (s *Store) resultScratch(n, total int) ([]Component, []byte) {
	if cap(s.compScratch) < n {
		s.compScratch = make([]Component, n+8)
	}
	if cap(s.blockScratch) < total {
		s.blockScratch = make([]byte, total+total/2)
	}
	poisonScratch(s.blockScratch)
	return s.compScratch[:n], s.blockScratch[:total]
}

// poisonScratch overwrites read scratch, to its capacity, under the poison
// tag before a read fills the part it selected: a decoder that reaches a
// component it did not ask for, directory bytes past the copied prefix, or
// the previous read's result sees 0xDB.
func poisonScratch(b []byte) {
	if poison {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xDB
		}
	}
}

// Read is the store's one object read. whole says which pages are
// transferred (fixed in the pool, read from the device on a miss): every
// header and data page — DSM: a header call plus one call for the
// contiguous data run — or the header pages and only the data pages that
// hold a selected component (DASDBS-DSM). want says which components
// (given tag and directory index; nil: all) are copied out: a whole read
// of one component pays the paper's price for the full object and moves
// that component's bytes only. A small object is one record on one shared
// page either way.
//
// It returns the selected components and, parallel to them, their directory
// indices, in store scratch: both, every Data included, are valid until the
// next Read or ChangeComponent on this store and are to be decoded (or
// copied) before it. In exchange a steady-state read allocates nothing,
// which keeps a serving process's allocation rate flat under load.
func (s *Store) Read(ref Ref, whole bool, want func(tag uint8, idx int) bool) ([]Component, []int, error) {
	if ref.Small {
		// Decode straight out of the heap page view: decodeInline copies
		// what it selects out of the record, so nothing aliases the frame.
		var comps []Component
		var idxs []int
		err := s.shared.View(ref.RID, func(rec []byte) error {
			var err error
			comps, idxs, err = s.decodeInline(rec, want)
			return err
		})
		return comps, idxs, err
	}
	spans, total, err := s.readSpans(ref, want)
	if err != nil {
		return nil, nil, err
	}
	dataStart := ref.Start + disk.PageID(ref.HeaderPages)
	if whole {
		return s.fillSpans(spans, total, dataStart, s.pageRun(dataStart, int(ref.DataPages)))
	}
	return s.fillSpans(spans, total, dataStart, s.spanPages(spans, dataStart))
}

// ReadAllShared is Read of everything: every page fixed, every component
// copied out, in directory order.
func (s *Store) ReadAllShared(ref Ref) ([]Component, error) {
	comps, _, err := s.Read(ref, true, nil)
	return comps, err
}

// decodeInline cuts the components of a small-object record that want
// selects (nil: all) out of the block scratch and lists their indices in
// the index scratch (see Read for the aliasing contract).
func (s *Store) decodeInline(rec []byte, want func(tag uint8, idx int) bool) ([]Component, []int, error) {
	if len(rec) < inlinePrologue {
		return nil, nil, fmt.Errorf("%w: short inline object", ErrBadRef)
	}
	n := int(binary.BigEndian.Uint16(rec))
	if len(rec) < inlinePrologue+inlineEntry*n {
		return nil, nil, fmt.Errorf("%w: truncated inline directory", ErrBadRef)
	}
	// Validate every directory length against the record before sizing
	// the scratch: a corrupt record must produce an error, not a huge
	// allocation retained on the store.
	total := 0
	end := inlinePrologue + inlineEntry*n
	for i := 0; i < n; i++ {
		l := int(binary.BigEndian.Uint16(rec[inlinePrologue+inlineEntry*i+1:]))
		if end+total+l > len(rec) {
			return nil, nil, fmt.Errorf("%w: truncated inline component %d", ErrBadRef, i)
		}
		total += l
	}
	comps, block := s.resultScratch(n, total)
	comps, idxs := comps[:0], slices.Grow(s.idxScratch[:0], n)
	off := end
	pos := 0
	for i := 0; i < n; i++ {
		base := inlinePrologue + inlineEntry*i
		l := int(binary.BigEndian.Uint16(rec[base+1:]))
		if want == nil || want(rec[base], i) {
			data := block[pos : pos+l : pos+l]
			copy(data, rec[off:off+l])
			comps, idxs = append(comps, Component{Tag: rec[base], Data: data}), append(idxs, i)
			pos += l
		}
		off += l
	}
	s.idxScratch = idxs
	return comps, idxs, nil
}

// ReplaceAll overwrites the whole object in place (the paper's "replace
// entire tuple" update path used by DSM, NSM and DASDBS-NSM). The new
// component layout must occupy the same number of header and data pages;
// otherwise ErrResize is returned. Pages are marked dirty and written back
// at the next flush/overflow, so a batch of replacements costs one batched
// write (§5.3: "16.7 tuples are updated at the same time, which can be
// implemented in DASDBS as a single 'replace set of tuples' operation").
func (s *Store) ReplaceAll(ref Ref, comps []Component) error {
	if ref.Small {
		rec := s.encodeInline(comps)
		if len(rec) > page.Capacity {
			return fmt.Errorf("%w: small object grows beyond a page", ErrResize)
		}
		return s.shared.Update(ref.RID, rec)
	}
	headerPages, dataPages, total := s.measure(comps)
	if headerPages != int(ref.HeaderPages) || dataPages != int(ref.DataPages) {
		return fmt.Errorf("%w: %dh+%dd -> %dh+%dd", ErrResize,
			ref.HeaderPages, ref.DataPages, headerPages, dataPages)
	}
	images := s.compose(comps, headerPages, dataPages, total)
	return s.visitPages(s.pageRun(ref.Start, ref.Pages()), true, func(i int, payload []byte) {
		copy(payload, images[i][disk.SysHeaderSize:])
	})
}

// Replace stores the new component set for an existing object. When the
// new layout fits the old page footprint the replacement happens in place
// (deferred writes, as ReplaceAll); otherwise — a large object changing
// its page count, or a small object outgrowing the free space of its
// shared page — the object is relocated: the old storage is released and
// a fresh object is inserted, whose new address is returned. Callers must
// adopt the returned Ref.
func (s *Store) Replace(ref Ref, comps []Component) (Ref, error) {
	err := s.ReplaceAll(ref, comps)
	if err == nil {
		return ref, nil
	}
	if !errors.Is(err, ErrResize) && !errors.Is(err, page.ErrPageFull) {
		return Ref{}, err
	}
	if ref.Small {
		if err := s.shared.Delete(ref.RID); err != nil {
			return Ref{}, err
		}
	} else {
		s.freeLarge(ref)
	}
	return s.Insert(comps)
}

// freeLarge releases a relocated large object: its accounting is undone
// and its page run enters the free-space map for recycling by a later
// insert.
func (s *Store) freeLarge(ref Ref) {
	s.large--
	s.headerPages -= int(ref.HeaderPages)
	s.dataPages -= int(ref.DataPages)
	s.freeRun(ref.Start, ref.Pages())
}

// freeRun inserts [start, start+n) into the free-space map, keeping it
// sorted by start and merging adjacent runs.
func (s *Store) freeRun(start disk.PageID, n int) {
	i := sort.Search(len(s.free), func(i int) bool { return s.free[i].start >= start })
	s.free = append(s.free, pageRun{})
	copy(s.free[i+1:], s.free[i:])
	s.free[i] = pageRun{start: start, n: n}
	if i+1 < len(s.free) && s.free[i].start+disk.PageID(s.free[i].n) == s.free[i+1].start {
		s.free[i].n += s.free[i+1].n
		s.free = append(s.free[:i+1], s.free[i+2:]...)
	}
	if i > 0 && s.free[i-1].start+disk.PageID(s.free[i-1].n) == s.free[i].start {
		s.free[i-1].n += s.free[i].n
		s.free = append(s.free[:i], s.free[i+1:]...)
	}
	s.freedPages += n
}

// claimRun produces a contiguous run of n pages for a new large object:
// first fit from the free-space map, falling back to extending the device.
// A recycled run is purged from the buffer pool first — its frames, clean
// or dirty, describe the dead object and must not shadow the bulk write
// of the new one.
func (s *Store) claimRun(n int) (disk.PageID, error) {
	for i := range s.free {
		if s.free[i].n < n {
			continue
		}
		start := s.free[i].start
		if s.free[i].n == n {
			s.free = append(s.free[:i], s.free[i+1:]...)
		} else {
			s.free[i].start += disk.PageID(n)
			s.free[i].n -= n
		}
		s.freedPages -= n
		ids := make([]disk.PageID, n)
		for j := range ids {
			ids[j] = start + disk.PageID(j)
		}
		if err := s.pool.Drop(ids); err != nil {
			// Return the run to the map: a failed claim (a still-pinned
			// stale frame) must not leak the pages out of the free space.
			s.freeRun(start, n)
			return disk.InvalidPage, err
		}
		return start, nil
	}
	return s.dev.Allocate(n)
}

// ChangeComponent overwrites component idx in place with same-length data
// and writes the affected pages through immediately (the DASDBS "change
// attribute" page-pool behaviour of §5.3: "each update operation allocates
// a page pool, of which all pages are written ... even though the page
// pool is only a single page in size"). Returns the number of pages
// written through.
func (s *Store) ChangeComponent(ref Ref, idx int, data []byte) (int, error) {
	if ref.Small {
		// One read (its view is dropped before Update re-fixes the page),
		// one component swapped, one re-encode into the record scratch.
		comps, _, err := s.Read(ref, true, nil)
		if err != nil {
			return 0, err
		}
		if idx < 0 || idx >= len(comps) {
			return 0, fmt.Errorf("%w: %d of %d", ErrBadComp, idx, len(comps))
		}
		if len(data) != len(comps[idx].Data) {
			return 0, fmt.Errorf("%w: %d -> %d bytes", ErrSameLen, len(comps[idx].Data), len(data))
		}
		comps[idx].Data = data
		if err := s.shared.Update(ref.RID, s.encodeInline(comps)); err != nil {
			return 0, err
		}
		if err := s.pool.FlushPages([]disk.PageID{ref.RID.Page}); err != nil {
			return 0, err
		}
		return 1, nil
	}
	hdr, err := s.readHeader(ref)
	if err != nil {
		return 0, err
	}
	n := int(binary.BigEndian.Uint16(hdr))
	if idx < 0 || idx >= n {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadComp, idx, n)
	}
	_, off, length, err := dirEntryAt(hdr, idx)
	if err != nil {
		return 0, err
	}
	if len(data) != length {
		return 0, fmt.Errorf("%w: %d -> %d bytes", ErrSameLen, length, len(data))
	}
	if length == 0 {
		return 0, nil
	}
	eff := s.effSize()
	firstPg := off / eff
	ids := s.pageRun(ref.Start+disk.PageID(int(ref.HeaderPages)+firstPg), (off+length-1)/eff-firstPg+1)
	err = s.visitPages(ids, true, func(i int, payload []byte) {
		pg := firstPg + i
		pageStart := pg * eff
		segStart := max(off, pageStart)
		segEnd := min(off+length, pageStart+eff)
		copy(payload[segStart-pageStart:segEnd-pageStart], data[segStart-off:segEnd-off])
	})
	if err != nil {
		return 0, err
	}
	if err := s.pool.FlushPages(ids); err != nil {
		return 0, err
	}
	return len(ids), nil
}

// StateLen returns the exact number of bytes AppendState appends, so a
// snapshot encoder can size its buffer once.
func (s *Store) StateLen() int { return 5*8 + 4 + 8*len(s.free) + s.shared.StateLen() }

// AppendState serializes the store's directory state — object and page
// accounting plus the free-space map — for a database snapshot, followed
// by the shared heap's state. The page images themselves travel with the
// device arena.
func (s *Store) AppendState(b []byte) []byte {
	b = wire.AppendU64(b, uint64(s.large))
	b = wire.AppendU64(b, uint64(s.headerPages))
	b = wire.AppendU64(b, uint64(s.dataPages))
	b = wire.AppendU64(b, uint64(s.dataBytes))
	b = wire.AppendU64(b, uint64(s.freedPages))
	b = wire.AppendU32(b, uint32(len(s.free)))
	for _, r := range s.free {
		b = wire.AppendU32(b, uint32(r.start))
		b = wire.AppendU32(b, uint32(r.n))
	}
	return s.shared.AppendState(b)
}

// RestoreState rebuilds the directory state from AppendState output, over
// a device that already holds the page images. The store must be empty.
func (s *Store) RestoreState(r *wire.Reader) error {
	if s.large != 0 || s.shared.NumRecords() != 0 {
		return errors.New("longobj: restore into non-empty store")
	}
	s.large = int(r.U64())
	s.headerPages = int(r.U64())
	s.dataPages = int(r.U64())
	s.dataBytes = int64(r.U64())
	s.freedPages = int(r.U64())
	n := r.Len(8) // u32 start + u32 length per free run
	s.free = make([]pageRun, n)
	for i := range s.free {
		s.free[i] = pageRun{start: disk.PageID(r.U32()), n: int(r.U32())}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("longobj: %w", err)
	}
	return s.shared.RestoreState(r)
}

// RefLen is the encoded size of a Ref, either variant.
const RefLen = 9

// AppendRef serializes a Ref (RefLen bytes, either variant).
func AppendRef(b []byte, ref Ref) []byte {
	if ref.Small {
		b = wire.AppendU8(b, 1)
		b = wire.AppendU32(b, uint32(ref.RID.Page))
		b = wire.AppendU16(b, ref.RID.Slot)
		return wire.AppendU16(b, 0)
	}
	b = wire.AppendU8(b, 0)
	b = wire.AppendU32(b, uint32(ref.Start))
	b = wire.AppendU16(b, ref.HeaderPages)
	return wire.AppendU16(b, ref.DataPages)
}

// ReadRef consumes a Ref appended by AppendRef.
func ReadRef(r *wire.Reader) Ref {
	small := r.U8() == 1
	a := r.U32()
	h := r.U16()
	d := r.U16()
	if small {
		return Ref{Small: true, RID: heap.RID{Page: disk.PageID(a), Slot: h}}
	}
	return Ref{Start: disk.PageID(a), HeaderPages: h, DataPages: d}
}
