package snapshot

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/store"
)

// Version is the current container format version.
const Version = 2

var magic = [4]byte{'C', 'O', 'D', 'B'}

var (
	// ErrFormat reports a malformed or wrong-version snapshot file.
	ErrFormat = errors.New("snapshot: invalid snapshot file")
	// ErrNoModel reports that the requested storage model is not in the
	// snapshot.
	ErrNoModel = errors.New("snapshot: model not in snapshot")
)

// Info describes a snapshot file's contents.
type Info struct {
	// Gen is the generator configuration the snapshot was built from.
	Gen cobench.Config
	// Kinds lists the stored models in file order.
	Kinds []store.Kind
	// PageSize is the device page size shared by all stored models.
	PageSize int
}

// entry is one model's header inside a snapshot file plus its position.
type entry struct {
	kind     store.Kind
	pageSize int
	numPages int
	seq, gen uint64 // WAL watermark and writer's generation (0 outside checkpoints)
	metaLen  int
	metaOff  int64 // file offset of the meta blob; arena follows
}

// span is the length of the entry's meta blob plus arena (validated
// against the file size by parse).
func (e entry) span() int64 {
	return int64(e.metaLen) + int64(e.numPages)*int64(e.pageSize)
}

// entryHeaderLen is the encoded size of an entry header:
// u8 kind | u32 pageSize | u32 numPages | u64 seq | u64 gen | u32 metaLen.
const entryHeaderLen = 1 + 4 + 4 + 8 + 8 + 4

// writeFileAtomic streams content into a temp file in path's directory,
// syncs it, renames it over path and syncs the directory, so a reader
// sees the old file or the complete new one, never a prefix.
func writeFileAtomic(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("snapshot: create: %w", err)
	}
	defer func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}()
	// 64 KiB gathers the header, blobs and single committed pages; an
	// arena's floor runs are larger and pass straight through.
	w := bufio.NewWriterSize(tmp, 64<<10)
	if err := write(w); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
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
	// Make the rename durable (best effort: some filesystems refuse
	// directory fsync; for checkpoints the WAL covers the gap there).
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// writeContainer atomically writes a .codb file: the header, then per
// entry its header followed by what body(i, w) streams — exactly the
// entry's metaLen meta bytes and numPages*pageSize arena bytes.
func writeContainer(path string, gen cobench.Config, entries []entry, body func(i int, w io.Writer) error) error {
	genJSON, err := json.Marshal(gen)
	if err != nil {
		return fmt.Errorf("snapshot: encode gen config: %w", err)
	}
	return writeFileAtomic(path, func(w io.Writer) error {
		head := append([]byte(nil), magic[:]...)
		head = binary.BigEndian.AppendUint16(head, Version)
		head = binary.BigEndian.AppendUint32(head, uint32(len(genJSON)))
		head = append(head, genJSON...)
		head = binary.BigEndian.AppendUint16(head, uint16(len(entries)))
		if _, err := w.Write(head); err != nil {
			return err
		}
		for i, e := range entries {
			hdr := []byte{byte(e.kind)}
			hdr = binary.BigEndian.AppendUint32(hdr, uint32(e.pageSize))
			hdr = binary.BigEndian.AppendUint32(hdr, uint32(e.numPages))
			hdr = binary.BigEndian.AppendUint64(hdr, e.seq)
			hdr = binary.BigEndian.AppendUint64(hdr, e.gen)
			hdr = binary.BigEndian.AppendUint32(hdr, uint32(e.metaLen))
			if _, err := w.Write(hdr); err != nil {
				return err
			}
			if err := body(i, w); err != nil {
				return fmt.Errorf("snapshot: write %s: %w", e.kind, err)
			}
		}
		return nil
	})
}

// Write serializes the loaded models into path (atomically: a temp file
// in the same directory is renamed over the target). Dirty pages are
// flushed into the device first, so the arena is the authoritative state.
func Write(path string, gen cobench.Config, models ...store.Model) error {
	if len(models) == 0 {
		return errors.New("snapshot: no models to write")
	}
	entries := make([]entry, len(models))
	metas := make([][]byte, len(models))
	for i, m := range models {
		if err := m.Flush(); err != nil {
			return fmt.Errorf("snapshot: flush %s: %w", m.Kind(), err)
		}
		meta, err := m.SnapshotMeta()
		if err != nil {
			return fmt.Errorf("snapshot: meta %s: %w", m.Kind(), err)
		}
		dev := m.Engine().Dev
		entries[i] = entry{kind: m.Kind(), pageSize: dev.PageSize(), numPages: dev.NumPages(), metaLen: len(meta)}
		metas[i] = meta
	}
	return writeContainer(path, gen, entries, func(i int, w io.Writer) error {
		if _, err := w.Write(metas[i]); err != nil {
			return err
		}
		return models[i].Engine().Dev.DumpTo(w)
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
	if v := binary.BigEndian.Uint16(head[4:]); v != Version {
		return Info{}, nil, fmt.Errorf("%w: version %d, want %d", ErrFormat, v, Version)
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
		e := entry{
			kind:     store.Kind(hdr[0]),
			pageSize: int(binary.BigEndian.Uint32(hdr[1:])),
			numPages: int(binary.BigEndian.Uint32(hdr[5:])),
			seq:      binary.BigEndian.Uint64(hdr[9:]),
			gen:      binary.BigEndian.Uint64(hdr[17:]),
			metaLen:  int(binary.BigEndian.Uint32(hdr[25:])),
			metaOff:  off,
		}
		// Both factors are below 2^32, so the product cannot wrap uint64.
		body := uint64(e.metaLen) + uint64(e.numPages)*uint64(e.pageSize)
		if e.pageSize <= disk.SysHeaderSize {
			return Info{}, nil, fmt.Errorf("%w: entry %d has page size %d", ErrFormat, i, e.pageSize)
		}
		if body > math.MaxInt || body > uint64(size-off) {
			return Info{}, nil, fmt.Errorf("%w: entry %d needs %d bytes, file has %d left", ErrFormat, i, body, size-off)
		}
		off += int64(body)
		entries = append(entries, e)
		info.Kinds = append(info.Kinds, e.kind)
		info.PageSize = e.pageSize
	}
	return info, entries, nil
}

// find opens the snapshot at path and locates the entry of kind k. The
// caller closes the file.
func find(path string, k store.Kind) (*os.File, entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, entry{}, err
	}
	_, entries, err := parse(f)
	if err == nil {
		for _, e := range entries {
			if e.kind == k {
				return f, e, nil
			}
		}
		err = fmt.Errorf("%w: %s in %s", ErrNoModel, k, filepath.Base(path))
	}
	f.Close()
	return nil, entry{}, err
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
	base, _, err := openBase(path, k, disk.CanMapBase)
	return base, err
}

// OpenBaseHeap is OpenBase with the arena copied into the heap
// unconditionally: the portable fallback, kept for callers that want the
// base to survive snapshot-file deletion and as the reference the mapped
// variant is tested against.
func OpenBaseHeap(path string, k store.Kind) (*store.SharedBase, error) {
	base, _, err := openBase(path, k, false)
	return base, err
}

func openBase(path string, k store.Kind, mapped bool) (*store.SharedBase, entry, error) {
	f, e, err := find(path, k)
	if err != nil {
		return nil, entry{}, err
	}
	defer f.Close()
	meta := make([]byte, e.metaLen)
	if _, err := f.ReadAt(meta, e.metaOff); err != nil {
		return nil, entry{}, fmt.Errorf("%w: meta of %s", ErrFormat, k)
	}
	arenaBytes := e.numPages * e.pageSize
	arenaOff := e.metaOff + int64(e.metaLen)
	var arena *disk.BaseArena
	if mapped {
		// Map through the descriptor the offsets were parsed from: if
		// the path was atomically replaced since Open, reopening it
		// would pair this file's offsets with another file's bytes.
		arena, err = disk.MapBaseArena(f, arenaOff, arenaBytes)
		if err != nil {
			return nil, entry{}, fmt.Errorf("snapshot: map arena of %s: %w", k, err)
		}
	} else {
		buf := make([]byte, arenaBytes)
		if _, err := f.ReadAt(buf, arenaOff); err != nil {
			return nil, entry{}, fmt.Errorf("%w: arena of %s", ErrFormat, k)
		}
		arena = disk.NewBaseArena(buf)
	}
	base, err := store.NewSharedBase(k, e.pageSize, meta, arena)
	if err != nil {
		arena.Release()
		return nil, entry{}, err
	}
	return base, e, nil
}
