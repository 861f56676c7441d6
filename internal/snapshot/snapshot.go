package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/store"
)

// Version is the current container format version. Readers also accept
// version 2, whose entries hold one kind each (checkpoints and snapshots
// written before entries held kind sets).
const Version = 3

var magic = [4]byte{'C', 'O', 'D', 'B'}

var (
	// ErrFormat reports a malformed or wrong-version snapshot file.
	ErrFormat = errors.New("snapshot: invalid snapshot file")
	// ErrNoModel reports that the requested storage model is not in the
	// snapshot.
	ErrNoModel = errors.New("snapshot: model not in snapshot")

	// The entry-table rules, refused by Write and — wrapped in ErrFormat —
	// by every reader.

	// ErrKindSet reports an entry holding no kind or a kind that is not a
	// storage model.
	ErrKindSet = errors.New("snapshot: empty or unknown kind set")
	// ErrDuplicateKind reports a kind held by two entries.
	ErrDuplicateKind = errors.New("snapshot: kind held by two entries")
	// ErrMixedLayout reports an entry whose kinds are of two physical
	// layouts.
	ErrMixedLayout = errors.New("snapshot: entry kinds span two layouts")
	// ErrPageSize reports an entry whose page size is not
	// disk.DefaultPageSize, the one page size of the system.
	ErrPageSize = errors.New("snapshot: entry of a foreign page size")
)

// Info describes a snapshot file's contents.
type Info struct {
	// Gen is the generator configuration the snapshot was built from.
	Gen cobench.Config
	// Kinds lists the stored models in file order.
	Kinds []store.Kind
}

// kindSet is a set of storage models, bit k standing for store.Kind k:
// the kind byte of a version-3 entry header.
type kindSet uint8

// knownKinds is the set of every storage model.
var knownKinds = func() (s kindSet) {
	for _, k := range store.AllKinds() {
		s |= setOf(k)
	}
	return s
}()

// setOf returns the set holding k alone (empty for a kind with no bit).
func setOf(k store.Kind) kindSet {
	if k < 0 || k >= 8 {
		return 0
	}
	return 1 << k
}

// has reports whether k is in the set.
func (s kindSet) has(k store.Kind) bool { return setOf(k) != 0 && s&setOf(k) != 0 }

// list returns the set's kinds in ascending (AllKinds) order.
func (s kindSet) list() []store.Kind {
	var ks []store.Kind
	for k := store.Kind(0); k < 8; k++ {
		if s.has(k) {
			ks = append(ks, k)
		}
	}
	return ks
}

// entry is one stored arena's header inside a snapshot file plus its
// position: the arena of every kind in the set.
type entry struct {
	kinds    kindSet
	numPages int
	seq, gen uint64 // WAL watermark and writer's generation (0 outside checkpoints)
	metaLen  int
	metaOff  int64 // file offset of the meta blob; arena follows
}

// span is the length of the entry's meta blob plus arena (validated
// against the file size by parse).
func (e entry) span() int64 {
	return int64(e.metaLen) + int64(e.numPages)*disk.DefaultPageSize
}

// entryHeaderLen is the encoded size of an entry header:
// u8 kinds | u32 pageSize | u32 numPages | u64 seq | u64 gen | u32 metaLen.
const entryHeaderLen = 1 + 4 + 4 + 8 + 8 + 4

// checkEntries applies the entry-table rules: every entry holds a
// non-empty set of storage models of one physical layout, and no kind is
// held by two entries.
func checkEntries(entries []entry) error {
	var seen kindSet
	for i, e := range entries {
		if e.kinds == 0 || e.kinds&^knownKinds != 0 {
			return fmt.Errorf("%w: entry %d holds %#02x", ErrKindSet, i, byte(e.kinds))
		}
		ks := e.kinds.list()
		for _, k := range ks[1:] {
			if k.Layout() != ks[0].Layout() {
				return fmt.Errorf("%w: entry %d holds %s and %s", ErrMixedLayout, i, ks[0], k)
			}
		}
		if dup := seen & e.kinds; dup != 0 {
			return fmt.Errorf("%w: %s again in entry %d", ErrDuplicateKind, dup.list()[0], i)
		}
		seen |= e.kinds
	}
	return nil
}

// NewWriteBuffer returns a buffer to stream .codb files through: 64 KiB
// gathers the header, blobs and single committed pages, and an arena's
// floor runs are larger and pass straight through. One buffer serves any
// number of files written one after another (a commit log keeps one for
// all its checkpoints); two writes at once need two.
func NewWriteBuffer() *bufio.Writer { return bufio.NewWriterSize(nil, 64<<10) }

// writeFileAtomic streams content into a temp file in path's directory
// through buf, syncs it, renames it over path and syncs the directory, so
// a reader sees the old file or the complete new one, never a prefix.
func writeFileAtomic(path string, buf *bufio.Writer, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("snapshot: create: %w", err)
	}
	defer func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}()
	buf.Reset(tmp)
	if err := write(buf); err != nil {
		return err
	}
	if err := buf.Flush(); err != nil {
		return err
	}
	// CreateTemp's restrictive 0600 mode would survive the rename; align
	// with ordinary data files so another user can replay the snapshot.
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir makes renames into dir durable (best effort: some filesystems
// refuse directory fsync; for checkpoints the WAL covers the gap there).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// writeContainer atomically writes a .codb file through buf: the header,
// then per entry its header followed by what body(i, w) streams — exactly
// the entry's metaLen meta bytes and numPages*disk.DefaultPageSize arena
// bytes.
func writeContainer(path string, buf *bufio.Writer, gen cobench.Config, entries []entry, body func(i int, w io.Writer) error) error {
	genJSON, err := json.Marshal(gen)
	if err != nil {
		return fmt.Errorf("snapshot: encode gen config: %w", err)
	}
	return writeFileAtomic(path, buf, func(w io.Writer) error {
		head := append([]byte(nil), magic[:]...)
		head = binary.BigEndian.AppendUint16(head, Version)
		head = binary.BigEndian.AppendUint32(head, uint32(len(genJSON)))
		head = append(head, genJSON...)
		head = binary.BigEndian.AppendUint16(head, uint16(len(entries)))
		if _, err := w.Write(head); err != nil {
			return err
		}
		for i, e := range entries {
			hdr := []byte{byte(e.kinds)}
			hdr = binary.BigEndian.AppendUint32(hdr, disk.DefaultPageSize)
			hdr = binary.BigEndian.AppendUint32(hdr, uint32(e.numPages))
			hdr = binary.BigEndian.AppendUint64(hdr, e.seq)
			hdr = binary.BigEndian.AppendUint64(hdr, e.gen)
			hdr = binary.BigEndian.AppendUint32(hdr, uint32(e.metaLen))
			if _, err := w.Write(hdr); err != nil {
				return err
			}
			if err := body(i, w); err != nil {
				return fmt.Errorf("snapshot: write %v: %w", e.kinds.list(), err)
			}
		}
		return nil
	})
}

// Write serializes the loaded models into path (atomically: a temp file
// in the same directory is renamed over the target). Dirty pages are
// flushed into the device first, so the arena is the authoritative state.
//
// A physical layout is stored once: a model whose page count, directory
// metadata and arena equal an earlier model's of the same layout, byte for
// byte, joins that model's entry instead of writing its own (freshly
// loaded DSM and DASDBS-DSM, NSM and NSM+index). A model whose bytes
// differ — one updated after its load — keeps an entry of its own. Models
// of an unknown kind and a kind given twice are refused (ErrKindSet,
// ErrDuplicateKind).
func Write(path string, gen cobench.Config, models ...store.Model) error {
	if len(models) == 0 {
		return errors.New("snapshot: no models to write")
	}
	each := make([]entry, len(models))
	metas := make([][]byte, len(models))
	for i, m := range models {
		if err := m.Flush(); err != nil {
			return fmt.Errorf("snapshot: flush %s: %w", m.Kind(), err)
		}
		meta, err := m.SnapshotMeta()
		if err != nil {
			return fmt.Errorf("snapshot: meta %s: %w", m.Kind(), err)
		}
		each[i] = entry{kinds: setOf(m.Kind()), numPages: m.Engine().Dev.NumPages(), metaLen: len(meta)}
		metas[i] = meta
	}
	if err := checkEntries(each); err != nil {
		return fmt.Errorf("snapshot: write: %w", err)
	}
	// sameBytes reports whether models i and j would store the same bytes:
	// one physical layout, equal metadata and equal arenas.
	sameBytes := func(i, j int) (bool, error) {
		if models[i].Kind().Layout() != models[j].Kind().Layout() || !bytes.Equal(metas[i], metas[j]) {
			return false, nil
		}
		return models[i].Engine().Dev.SameContent(models[j].Engine().Dev)
	}
	var entries []entry
	var src []int // src[j]: the model whose meta and arena entry j stores
next:
	for i, e := range each {
		for j := range entries {
			same, err := sameBytes(src[j], i)
			if err != nil {
				return fmt.Errorf("snapshot: compare %s: %w", models[i].Kind(), err)
			}
			if same {
				entries[j].kinds |= e.kinds
				continue next
			}
		}
		entries = append(entries, e)
		src = append(src, i)
	}
	return writeContainer(path, NewWriteBuffer(), gen, entries, func(j int, w io.Writer) error {
		if _, err := w.Write(metas[src[j]]); err != nil {
			return err
		}
		return models[src[j]].Engine().Dev.DumpTo(w)
	})
}

// parse reads the header and the entry table — the one reader every
// persisted arena enters through (snapshots, checkpoints, shard segments
// received from other nodes). Nothing is allocated or skipped on the word
// of a header field alone: every length is checked against the bytes the
// file actually has left. Meta blobs and arenas are skipped, not read, so
// describing or opening one model of a paper-scale snapshot never streams
// the other models' arenas through memory.
func parse(f *os.File) (Info, []entry, error) {
	st, err := f.Stat()
	if err != nil {
		return Info{}, nil, err
	}
	size := st.Size()
	var off int64
	readN := func(n int) ([]byte, error) {
		if int64(n) > size-off {
			return nil, fmt.Errorf("%w: truncated at byte %d", ErrFormat, size)
		}
		b := make([]byte, n)
		if _, err := f.ReadAt(b, off); err != nil {
			return nil, fmt.Errorf("%w: read at byte %d: %v", ErrFormat, off, err)
		}
		off += int64(n)
		return b, nil
	}
	head, err := readN(4 + 2 + 4)
	if err != nil {
		return Info{}, nil, err
	}
	if [4]byte(head[:4]) != magic {
		return Info{}, nil, fmt.Errorf("%w: bad magic %q", ErrFormat, head[:4])
	}
	version := binary.BigEndian.Uint16(head[4:])
	if version != Version && version != 2 {
		return Info{}, nil, fmt.Errorf("%w: version %d, want 2 or %d", ErrFormat, version, Version)
	}
	genLen := binary.BigEndian.Uint32(head[6:])
	if genLen > 1<<20 {
		return Info{}, nil, fmt.Errorf("%w: gen config of %d bytes", ErrFormat, genLen)
	}
	genJSON, err := readN(int(genLen))
	if err != nil {
		return Info{}, nil, err
	}
	var info Info
	if err := json.Unmarshal(genJSON, &info.Gen); err != nil {
		return Info{}, nil, fmt.Errorf("%w: gen config: %v", ErrFormat, err)
	}
	cb, err := readN(2)
	if err != nil {
		return Info{}, nil, err
	}
	var entries []entry
	for i := 0; i < int(binary.BigEndian.Uint16(cb)); i++ {
		hdr, err := readN(entryHeaderLen)
		if err != nil {
			return Info{}, nil, err
		}
		if ps := binary.BigEndian.Uint32(hdr[1:]); ps != disk.DefaultPageSize {
			return Info{}, nil, fmt.Errorf("%w: %w: %s: entry %d has page size %d, want %d",
				ErrFormat, ErrPageSize, f.Name(), i, ps, disk.DefaultPageSize)
		}
		e := entry{
			kinds:    kindSet(hdr[0]),
			numPages: int(binary.BigEndian.Uint32(hdr[5:])),
			seq:      binary.BigEndian.Uint64(hdr[9:]),
			gen:      binary.BigEndian.Uint64(hdr[17:]),
			metaLen:  int(binary.BigEndian.Uint32(hdr[25:])),
			metaOff:  off,
		}
		if version == 2 { // one kind per entry: the byte is the kind
			e.kinds = setOf(store.Kind(hdr[0]))
		}
		// numPages is below 2^32, so the product cannot wrap uint64.
		body := uint64(e.metaLen) + uint64(e.numPages)*disk.DefaultPageSize
		if body > math.MaxInt || body > uint64(size-off) {
			return Info{}, nil, fmt.Errorf("%w: entry %d needs %d bytes, file has %d left", ErrFormat, i, body, size-off)
		}
		off += int64(body)
		entries = append(entries, e)
		info.Kinds = append(info.Kinds, e.kinds.list()...)
	}
	if err := checkEntries(entries); err != nil {
		return Info{}, nil, fmt.Errorf("%w: %w", ErrFormat, err)
	}
	return info, entries, nil
}

// openParsed opens the snapshot at path and parses its entry table. The
// caller closes the file.
func openParsed(path string) (*os.File, []entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	_, entries, err := parse(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, entries, nil
}

// holding returns the index of the entry that holds k, or an ErrNoModel
// naming path.
func holding(entries []entry, k store.Kind, path string) (int, error) {
	for i, e := range entries {
		if e.kinds.has(k) {
			return i, nil
		}
	}
	return -1, fmt.Errorf("%w: %s in %s", ErrNoModel, k, filepath.Base(path))
}

// Stat describes a snapshot file without restoring anything.
func Stat(path string) (Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return Info{}, err
	}
	defer f.Close()
	info, _, err := parse(f)
	return info, err
}

// OpenBase lifts one model of the snapshot into a store.SharedBase
// without copying the arena through the heap where the platform allows
// it: the directory metadata is read normally (it is small), while the
// arena region of the .codb file is mmap'ed read-only in place
// (disk.MapBaseArena; on platforms without mmap support it degrades to
// the heap copy of OpenBaseHeap). Every engine opened from the base
// afterwards is a copy-on-write view of that single mapping, so a
// paper-scale `-db x.codb` run starts with near-zero resident arena and
// pages the base in on demand — and a view starts with a cold cache and
// zeroed counters and measures bit-identically to a fresh load. This is
// the one way a .codb file is opened; a caller that wants a single
// database opens one view and releases the base (the view keeps the
// arena alive).
//
// The snapshot file must not be truncated or rewritten in place while the
// base is alive; replacing it via Write (atomic rename) is safe, the
// mapping pins the old inode. Release the base (store.SharedBase.Release,
// after every view closed) to drop the mapping.
func OpenBase(path string, k store.Kind) (*store.SharedBase, error) {
	bases, _, err := openBases(path, []store.Kind{k}, disk.CanMapBase)
	if err != nil {
		return nil, err
	}
	return bases[0], nil
}

// OpenBases is OpenBase for several kinds at once; bases[i] serves
// kinds[i] and is released once. Each stored physical layout is mapped
// once however many kinds it holds: the kinds of one entry get bases of
// their own branched off the one floor (see lift), and within one call
// they share its decoded directory too (store.SharedBase.Branch). Naming
// a kind twice is an error.
func OpenBases(path string, kinds []store.Kind) ([]*store.SharedBase, error) {
	bases, _, err := openBases(path, kinds, disk.CanMapBase)
	return bases, err
}

// OpenBaseHeap is OpenBase with the arena copied into the heap
// unconditionally: the portable fallback, kept for callers that want the
// base to survive snapshot-file deletion and as the reference the mapped
// variant is tested against.
func OpenBaseHeap(path string, k store.Kind) (*store.SharedBase, error) {
	bases, _, err := openBases(path, []store.Kind{k}, false)
	if err != nil {
		return nil, err
	}
	return bases[0], nil
}

// openBases lifts the entries holding kinds into bases, one per kind (see
// OpenBases), and returns each kind's entry alongside.
func openBases(path string, kinds []store.Kind, mapped bool) ([]*store.SharedBase, []entry, error) {
	f, entries, err := openParsed(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	bases, held := make([]*store.SharedBase, len(kinds)), make([]entry, len(kinds))
	fail := func(err error) ([]*store.SharedBase, []entry, error) {
		for _, b := range bases {
			if b != nil {
				b.Release()
			}
		}
		return nil, nil, err
	}
	lifted := make(map[int]*store.SharedBase) // per entry, the base this call lifted
	for i, k := range kinds {
		if slices.Contains(kinds[:i], k) {
			return fail(fmt.Errorf("snapshot: open: model %s named twice", k))
		}
		j, err := holding(entries, k, path)
		if err != nil {
			return fail(err)
		}
		held[i] = entries[j]
		if b := lifted[j]; b != nil {
			bases[i], err = b.Branch(k)
		} else {
			bases[i], err = lift(f, entries[j], j, k, mapped)
			lifted[j] = bases[i]
		}
		if err != nil {
			return fail(err)
		}
	}
	return bases, held, nil
}

// floors remembers, per mapped entry — its file's identity and its index
// in the file — generation 0 of the first base lifted from it, without
// holding a reference. A later lift of the entry, through any open path,
// branches that floor while any base or view still stands on it, so a
// process maps each stored layout once however many kinds, calls and
// hard-linked names reach it. The mapping pins the file's inode, so the
// identity cannot pass to another file while the floor lives; a heap copy
// pins nothing and is shared only among the kinds of one OpenBases call.
var floors struct {
	sync.Mutex
	held []liftedEntry
}

type liftedEntry struct {
	file  os.FileInfo
	index int
	root  *disk.BaseArena
}

// lift reads the meta blob of e, entry index of f, and stands a base of
// kind k on its arena: a branch of the entry's floor when an earlier open
// mapped it (floors), else the arena mapped (or copied) afresh.
func lift(f *os.File, e entry, index int, k store.Kind, mapped bool) (*store.SharedBase, error) {
	meta := make([]byte, e.metaLen)
	if _, err := f.ReadAt(meta, e.metaOff); err != nil {
		return nil, fmt.Errorf("%w: meta of %s", ErrFormat, k)
	}
	arena, err := floorOf(f, e, index, mapped)
	if err != nil {
		return nil, fmt.Errorf("snapshot: arena of %s: %w", k, err)
	}
	return store.NewSharedBase(k, meta, arena), nil
}

// floorOf returns generation 0 of a new base over entry index of f (see
// lift), holding one reference owned by the caller.
func floorOf(f *os.File, e entry, index int, mapped bool) (*disk.BaseArena, error) {
	arenaBytes := e.numPages * disk.DefaultPageSize
	arenaOff := e.metaOff + int64(e.metaLen)
	if !mapped {
		buf := make([]byte, arenaBytes)
		if _, err := f.ReadAt(buf, arenaOff); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		return disk.NewBaseArena(buf), nil
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	floors.Lock()
	defer floors.Unlock()
	floors.held = slices.DeleteFunc(floors.held, func(l liftedEntry) bool { return l.root.Refs() == 0 })
	for _, l := range floors.held {
		if l.index == index && os.SameFile(l.file, st) {
			if a, err := l.root.Branch(); err == nil {
				return a, nil
			}
		}
	}
	// Map through the descriptor the offsets were parsed from: if the
	// path was atomically replaced since Open, reopening it would pair
	// this file's offsets with another file's bytes.
	arena, err := disk.MapBaseArena(f, arenaOff, arenaBytes)
	if err != nil {
		return nil, err
	}
	floors.held = append(floors.held, liftedEntry{file: st, index: index, root: arena})
	return arena, nil
}
